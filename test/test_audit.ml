open Protego_base
open Protego_kernel
open Ktypes
module Image = Protego_dist.Image

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let errno =
  Alcotest.testable (fun ppf e -> Fmt.string ppf (Errno.to_string e)) Errno.equal

let fixture () =
  let img = Image.build Image.Protego in
  img.Image.machine.password_source <- (fun _ -> None);
  Audit.clear img.Image.machine;
  img

let find_op records op = List.filter (fun r -> r.Audit.au_op = op) records

let test_mount_decisions_recorded () =
  let img = fixture () in
  let m = img.Image.machine in
  let alice = Image.login img "alice" in
  Syntax.expect_ok "allowed mount"
    (Syscall.mount m alice ~source:"/dev/cdrom" ~target:"/media/cdrom"
       ~fstype:"iso9660" ~flags:[ Mf_readonly; Mf_nosuid; Mf_nodev ]);
  ignore
    (Syscall.mount m alice ~source:"/dev/sda2" ~target:"/etc" ~fstype:"ext4"
       ~flags:[]);
  let mounts = find_op (Audit.records m) "mount" in
  check_int "two decisions" 2 (List.length mounts);
  (match mounts with
  | [ grant; denial ] ->
      check "grant first" true grant.Audit.au_allowed;
      check "denial second" false denial.Audit.au_allowed;
      check "subject recorded" true (grant.Audit.au_uid = Image.alice_uid);
      check "object recorded" true
        (grant.Audit.au_obj = "/dev/cdrom on /media/cdrom")
  | _ -> Alcotest.fail "unexpected records");
  ignore (Syscall.umount m alice ~target:"/media/cdrom");
  check "umount recorded" true (find_op (Audit.records m) "umount" <> [])

let test_delegation_denials_recorded () =
  let img = fixture () in
  let m = img.Image.machine in
  let alice = Image.login img "alice" in
  ignore (Syscall.setuid m alice Image.charlie_uid);
  let setuids = find_op (Audit.records m) "setuid" in
  check "denial recorded" true
    (List.exists
       (fun r ->
         (not r.Audit.au_allowed)
         && r.Audit.au_obj = "alice -> charlie (target authentication failed)")
       setuids);
  (* Deferred transitions are recorded as grants, and the exec gate logs
     its own verdict. *)
  Syntax.expect_ok "defer" (Syscall.setuid m alice Image.bob_uid);
  ignore (Syscall.execve m alice "/bin/cat" [ "/bin/cat" ] alice.env);
  check "deferred grant" true
    (List.exists
       (fun r -> r.Audit.au_allowed && r.Audit.au_obj = "alice -> bob (deferred to exec)")
       (find_op (Audit.records m) "setuid"));
  check "exec gate denial" true
    (List.exists
       (fun r -> not r.Audit.au_allowed)
       (find_op (Audit.records m) "exec-as"))

let test_bind_and_acl_recorded () =
  let img = fixture () in
  let m = img.Image.machine in
  let alice = Image.login img "alice" in
  let fd = Syntax.expect_ok "sock" (Syscall.socket m alice Af_inet Sock_stream 6) in
  ignore (Syscall.bind m alice fd Protego_net.Ipaddr.any 25);
  check "bind denial" true
    (List.exists
       (fun r -> not r.Audit.au_allowed)
       (find_op (Audit.records m) "bind"));
  ignore (Syscall.read_file m alice "/etc/ssh/ssh_host_rsa_key");
  check "file ACL denial" true
    (List.exists
       (fun r -> not r.Audit.au_allowed)
       (find_op (Audit.records m) "file-acl"));
  ignore (Syscall.read_file m alice "/etc/shadows/alice");
  check "shadow reauth denial" true
    (List.exists
       (fun r -> not r.Audit.au_allowed)
       (find_op (Audit.records m) "shadow-read"))

let test_proc_interface () =
  let img = fixture () in
  let m = img.Image.machine in
  let alice = Image.login img "alice" in
  let root = Image.login img "root" in
  ignore
    (Syscall.mount m alice ~source:"/dev/sda2" ~target:"/etc" ~fstype:"ext4"
       ~flags:[]);
  let log =
    Syntax.expect_ok "root reads audit"
      (Syscall.read_file m root "/proc/protego/audit")
  in
  check "denial rendered" true
    (let needle = "type=DENIAL" in
     let rec go i =
       i + String.length needle <= String.length log
       && (String.sub log i (String.length needle) = needle || go (i + 1))
     in
     go 0);
  Alcotest.(check (result unit errno))
    "alice cannot read the audit log" (Error Errno.EACCES)
    (Result.map (fun _ -> ()) (Syscall.read_file m alice "/proc/protego/audit"));
  (* Writing clears, root-only. *)
  Syntax.expect_ok "clear" (Syscall.write_file m root "/proc/protego/audit" "");
  check "cleared" true (Audit.records m = [])

let test_engine_metadata () =
  let img = fixture () in
  let m = img.Image.machine in
  let alice = Image.login img "alice" in
  let root = Image.login img "root" in
  let last_mount () =
    match List.rev (find_op (Audit.records m) "mount") with
    | r :: _ -> r
    | [] -> Alcotest.fail "no mount record"
  in
  (* Filtered hooks record what served them; the first decision misses
     the cache and runs the default engine, the compiled filter machine. *)
  ignore
    (Syscall.mount m alice ~source:"/dev/sda2" ~target:"/etc" ~fstype:"ext4"
       ~flags:[]);
  check "pfm engine recorded" true
    ((last_mount ()).Audit.au_engine = Some "pfm");
  (* Repeating the identical syscall is served by the decision cache. *)
  ignore
    (Syscall.mount m alice ~source:"/dev/sda2" ~target:"/etc" ~fstype:"ext4"
       ~flags:[]);
  check "cache engine recorded" true
    ((last_mount ()).Audit.au_engine = Some "cache");
  (* With the cache bypassed, the compiled engine shows through again. *)
  Syntax.expect_ok "disable cache"
    (Syscall.write_file m root "/proc/protego/cache_stats" "enable off\n");
  ignore
    (Syscall.mount m alice ~source:"/dev/sda2" ~target:"/etc" ~fstype:"ext4"
       ~flags:[]);
  check "pfm engine recorded without the cache" true
    ((last_mount ()).Audit.au_engine = Some "pfm");
  (* Unfiltered decisions carry no engine tag. *)
  ignore (Syscall.read_file m alice "/etc/ssh/ssh_host_rsa_key");
  (match List.rev (find_op (Audit.records m) "file-acl") with
  | r :: _ -> check "no engine on unfiltered hook" true (r.Audit.au_engine = None)
  | [] -> Alcotest.fail "no file-acl record");
  (* The rendered log shows the tag. *)
  let log =
    Syntax.expect_ok "render" (Syscall.read_file m root "/proc/protego/audit")
  in
  let has needle =
    let nl = String.length needle in
    let rec go i =
      i + nl <= String.length log && (String.sub log i nl = needle || go (i + 1))
    in
    go 0
  in
  check "engine=pfm rendered" true (has "engine=pfm");
  check "engine=cache rendered" true (has "engine=cache")

let test_ring_bounded () =
  let img = fixture () in
  let m = img.Image.machine in
  let alice = Image.login img "alice" in
  for _ = 1 to Audit.capacity + 50 do
    ignore
      (Syscall.mount m alice ~source:"/dev/sda2" ~target:"/etc" ~fstype:"ext4"
         ~flags:[])
  done;
  check_int "bounded" Audit.capacity (List.length (Audit.records m));
  check "all denials" true
    (List.length (Audit.denials m) = Audit.capacity)

let suites =
  [ ("audit:records",
      [ Alcotest.test_case "mount decisions" `Quick test_mount_decisions_recorded;
        Alcotest.test_case "delegation decisions" `Quick test_delegation_denials_recorded;
        Alcotest.test_case "bind and ACL decisions" `Quick test_bind_and_acl_recorded;
        Alcotest.test_case "/proc/protego/audit" `Quick test_proc_interface;
        Alcotest.test_case "engine metadata" `Quick test_engine_metadata;
        Alcotest.test_case "ring bound" `Quick test_ring_bounded ]) ]
