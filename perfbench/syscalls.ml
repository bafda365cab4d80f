(* The [syscalls] workload: one closed-loop caller issues a seeded stream
   of real system calls from unprivileged tasks on the Protego image.  It
   is the paper's own measure (Table 5), and the only workload that
   crosses the kernel, the LSM hooks, the sequential dispatcher and the
   netfilter OUTPUT chain.  Its unmodified share (stat, open, read,
   close) is where a hook change must show nothing. *)

open Protego_kernel
open Ktypes
module Image = Protego_dist.Image
module Ipaddr = Protego_net.Ipaddr
module Netfilter = Protego_net.Netfilter
module Packet = Protego_net.Packet
module Ppp = Protego_net.Ppp
module PS = Protego_core.Policy_state
module Disp = Protego_core.Pfm_dispatch
module Trace = Protego_core.Trace
module DC = Protego_core.Decision_cache
module Errno = Protego_base.Errno
module Bindconf = Protego_policy.Bindconf
module Daemon = Protego_services.Monitor_daemon
open Measure

(* Policy sizes: tens to hundreds of rules per source, most of them never
   matched by the stream, so lookups pay for realistic tables. *)
let real_devices = 24
let decoy_mounts = 120
let services = 12
let decoy_binds = 140
let real_serial = 8
let unlisted_serial = 4
let decoy_serial = 100
let nf_blocks = 96
let requests_per_pass = 4096

let users = 3  (* tasks 0..2: alice, bob, charlie; then the services *)

(* --- the request stream ---------------------------------------------- *)

type call =
  | Mount of { source : string; target : string; fstype : string;
               flags : mount_flag list }
  | Umount of { target : string }
  | Socket of { stype : sock_type }
  | Bind of { stype : sock_type; port : int }
  | Close
  | Sendto of { dst : Ipaddr.t; port : int; payload : string }
  | Ppp_ioctl of { dev : string; opt : Ppp.option_ }
  | Stat of { path : string }
  | Open of { path : string }
  | Read

(* [expect] is the generator's intended outcome: 0 for success, else the
   errno code. *)
type op = { task : int; call : call; expect : int }

let hook_names = [| "mount"; "umount"; "bind"; "nf_output"; "ppp_ioctl" |]

(* Index into [hook_names], or -1 for a call no filtered hook decides. *)
let hook_of = function
  | Mount _ -> 0
  | Umount _ -> 1
  | Bind _ -> 2
  | Sendto _ -> 3
  | Ppp_ioctl _ -> 4
  | Socket _ | Close | Stat _ | Open _ | Read -> -1

let ok = 0
let err e = Errno.to_code e
let code = function Ok _ -> ok | Error e -> err e

let sock_proto = function Sock_stream -> 6 | Sock_dgram | Sock_raw -> 17
let bind_proto = function Sock_stream -> Bindconf.Tcp | _ -> Bindconf.Udp
let service_exe k = Printf.sprintf "/usr/sbin/svc%d" k
let service_uid k = 2000 + k
let service_port stype k = (match stype with Sock_stream -> 600 | _ -> 700) + k
let device b = Printf.sprintf "/dev/bd%d" b
let media_dir b = Printf.sprintf "/media/bd%d" b

(* Destinations 203.0.i.0/24 for i < nf_blocks drop UDP to ports
   [2000 + 8i, 2000 + 8i + 3]; every other destination/port passes. *)
let nf_block_lo i = 2000 + (8 * i)

(* A "user" fstab entry implies nosuid,nodev: the caller must ask for
   both. *)
let user_flags = [ Mf_nosuid; Mf_nodev ]

let stat_paths =
  [| "/etc/motd"; "/etc/fstab"; "/bin/mount"; "/etc/ppp/options"; "/media";
     "/media/bd3"; "/usr/bin"; "/etc/bind" |]

let read_paths = [| "/etc/motd"; "/etc/fstab"; "/etc/bind" |]

let generate ~seed n =
  let rng = Random.State.make [| seed; 0x5c |] in
  let int k = Random.State.int rng k in
  let out = ref [] in
  let emit task call expect = out := { task; call; expect } :: !out in
  (* Request classes are dealt from a deck of 100 cards, shuffled anew
     every 100 requests, so every seed gives each class its exact share
     of the stream. *)
  let deck = Array.init 100 Fun.id in
  for j = 0 to n - 1 do
    if j mod 100 = 0 then
      for i = 99 downto 1 do
        let k = int (i + 1) in
        let c = deck.(i) in
        deck.(i) <- deck.(k);
        deck.(k) <- c
      done;
    let r = deck.(j mod 100) in
    if r < 12 then begin
      (* a user-fstab mount/umount pair by the entry's owner *)
      if int 8 = 0 then begin
        emit 0 (Mount { source = "/dev/cdrom"; target = "/media/cdrom";
                        fstype = "iso9660";
                        flags = [ Mf_readonly; Mf_nosuid; Mf_nodev ] }) ok;
        emit 0 (Umount { target = "/media/cdrom" }) ok
      end
      else begin
        let b = int real_devices in
        emit (b mod users)
          (Mount { source = device b; target = media_dir b; fstype = "vfat";
                   flags = user_flags }) ok;
        emit (b mod users) (Umount { target = media_dir b }) ok
      end
    end
    else if r < 18 then begin
      let b = int real_devices in
      let call =
        match int 3 with
        | 0 ->
            Mount { source = device b;
                    target = media_dir ((b + 1 + int (real_devices - 1))
                                        mod real_devices);
                    fstype = "vfat"; flags = user_flags }
        | 1 ->
            Mount { source = device b; target = media_dir b; fstype = "ext4";
                    flags = user_flags }
        | _ ->
            Mount { source = "/dev/sda2"; target = "/mnt/secure";
                    fstype = "ext4"; flags = [] }
      in
      emit (int users) call (err Errno.EPERM)
    end
    else if r < 30 then begin
      (* a low-port bind by the mapped (binary, uid) pair, or a wrong one *)
      let stype = if int 2 = 0 then Sock_stream else Sock_dgram in
      let k = int services in
      let mapped = r < 26 in
      let task =
        if mapped then users + k
        else if int 2 = 0 then int users
        else users + ((k + 1 + int (services - 1)) mod services)
      in
      emit task (Socket { stype }) ok;
      emit task (Bind { stype; port = service_port stype k })
        (if mapped then ok else err Errno.EACCES);
      emit task Close ok
    end
    else if r < 60 then begin
      (* a UDP datagram to a remote host through the OUTPUT chain *)
      let blocked = int 5 = 0 in
      let dst, port =
        if blocked then
          let i = int nf_blocks in
          (Ipaddr.v 203 0 i (1 + int 254), nf_block_lo i + int 4)
        else if int 2 = 0 then
          let i = int nf_blocks in
          (Ipaddr.v 203 0 i (1 + int 254), nf_block_lo i + 4 + int 4)
        else
          (Ipaddr.v 203 0 (nf_blocks + int (128 - nf_blocks)) (1 + int 254),
           2000 + int 1024)
      in
      emit (int users)
        (Sendto { dst; port; payload = Printf.sprintf "probe-%d" (int 1_000_000) })
        (if blocked then err Errno.EPERM else ok)
    end
    else if r < 72 then begin
      (* a modem ioctl: safe options on whitelisted lines only *)
      let safe () =
        match int 4 with
        | 0 -> Ppp.Compression (if int 2 = 0 then "deflate" else "bsdcomp")
        | 1 -> Ppp.Async_map (int 256)
        | 2 -> Ppp.Mru (576 + int 1000)
        | _ -> Ppp.Accomp
      in
      let listed () =
        if int 4 = 0 then "/dev/ttyS0"
        else Printf.sprintf "/dev/ttyUSB%d" (int real_serial)
      in
      match int 10 with
      | 0 | 1 ->
          let opt =
            match int 3 with
            | 0 -> Ppp.Default_route
            | 1 -> Ppp.Modem_line_speed (9600 * (1 + int 12))
            | _ -> Ppp.Modem_flow_control "crtscts"
          in
          emit 0 (Ppp_ioctl { dev = listed (); opt }) (err Errno.EPERM)
      | 2 ->
          emit 0
            (Ppp_ioctl { dev = Printf.sprintf "/dev/ttyX%d" (int unlisted_serial);
                         opt = safe () })
            (err Errno.EPERM)
      | _ -> emit 0 (Ppp_ioctl { dev = listed (); opt = safe () }) ok
    end
    else if r < 88 then
      emit (int users) (Stat { path = stat_paths.(int (Array.length stat_paths)) }) ok
    else begin
      let task = int users in
      emit task (Open { path = read_paths.(int (Array.length read_paths)) }) ok;
      emit task Read ok;
      emit task Close ok
    end
  done;
  Array.of_list (List.rev !out)

(* Copy every string and list of a request (see [Measure.fresh]). *)
let fresh_call = function
  | Mount { source; target; fstype; flags } ->
      Mount { source = fresh source; target = fresh target;
              fstype = fresh fstype; flags = List.map Fun.id flags }
  | Umount { target } -> Umount { target = fresh target }
  | Sendto { dst; port; payload } -> Sendto { dst; port; payload = fresh payload }
  | Ppp_ioctl { dev; opt } -> Ppp_ioctl { dev = fresh dev; opt = fresh_ppp_opt opt }
  | Stat { path } -> Stat { path = fresh path }
  | Open { path } -> Open { path = fresh path }
  | (Socket _ | Bind _ | Close | Read) as c -> c

let fresh_stream ops = Array.map (fun o -> { o with call = fresh_call o.call }) ops

let call_strings = function
  | Mount { source; target; fstype; _ } -> [ source; target; fstype ]
  | Umount { target } -> [ target ]
  | Sendto { payload; _ } -> [ payload ]
  | Ppp_ioctl { dev; opt = Ppp.Compression s | Ppp.Modem_flow_control s } ->
      [ dev; s ]
  | Ppp_ioctl { dev; _ } -> [ dev ]
  | Stat { path } | Open { path } -> [ path ]
  | Socket _ | Bind _ | Close | Read -> []

let stype_name = function Sock_stream -> "tcp" | Sock_dgram -> "udp" | Sock_raw -> "raw"

let render_op o =
  let c =
    match o.call with
    | Mount { source; target; fstype; flags } ->
        Printf.sprintf "mount %s %s %s %s" source target fstype
          (PS.flags_to_string flags)
    | Umount { target } -> "umount " ^ target
    | Socket { stype } -> "socket " ^ stype_name stype
    | Bind { stype; port } -> Printf.sprintf "bind %s %d" (stype_name stype) port
    | Close -> "close"
    | Sendto { dst; port; payload } ->
        Printf.sprintf "sendto %s %d %s" (Ipaddr.to_string dst) port payload
    | Ppp_ioctl { dev; opt } ->
        Printf.sprintf "ioctl %s %s" dev (Ppp.option_to_string opt)
    | Stat { path } -> "stat " ^ path
    | Open { path } -> "open " ^ path
    | Read -> "read"
  in
  Printf.sprintf "%d %s -> %d" o.task c o.expect

let digest ops = digest_lines (fun line -> Array.iter (fun o -> line (render_op o)) ops)

(* --- the machine ------------------------------------------------------ *)

type env = {
  img : Image.t;
  m : machine;
  tasks : task array;
  udp : int array;        (* per user task: a bound UDP socket *)
  udp_port : int array;   (* its source port *)
  ppp_fd : int;           (* alice's descriptor on /dev/ttyS0 *)
  scratch : int array;    (* per task: the descriptor a Socket/Open left *)
  hook_socks : socket array array;
      (* per task, [|tcp; udp|]: unbound sockets the hook-depth replay
         hands to [socket_bind] *)
}

let expect what = function
  | Ok v -> v
  | Error e ->
      failwith (Printf.sprintf "perfbench set-up: %s: %s" what (Errno.to_string e))

let append_file m kt path lines =
  let cur = expect ("read " ^ path) (Syscall.read_file m kt path) in
  expect ("write " ^ path)
    (Machine.write_file m kt ~path ~mode:0o644 (cur ^ String.concat "\n" lines ^ "\n"))

let socket_of task fd =
  match List.assoc_opt fd task.fds with
  | Some { fobj = F_socket s; _ } -> s
  | _ -> failwith "perfbench set-up: not a socket"

let build config =
  let img = Image.build config in
  let m = img.Image.machine in
  let kt = Machine.kernel_task m in
  for b = 0 to real_devices - 1 do
    expect "mkdev"
      (Machine.mkdev m kt ~path:(device b) ~mode:0o660
         (Dev_block
            { media = Some { media_fstype = "vfat";
                             media_files = [ ("readme.txt", device b) ] } }));
    ignore (expect "mkdir" (Machine.mkdir_p m kt (media_dir b) ~mode:0o755 ()))
  done;
  let serial name =
    expect "mkdev"
      (Machine.mkdev m kt ~path:("/dev/" ^ name) ~mode:0o660
         (Dev_serial { serial_name = name }))
  in
  for k = 0 to real_serial - 1 do serial (Printf.sprintf "ttyUSB%d" k) done;
  for k = 0 to unlisted_serial - 1 do serial (Printf.sprintf "ttyX%d" k) done;
  (* The policy load: the administrator edits the legacy files and the
     monitoring daemon carries them into /proc/protego. *)
  append_file m kt "/etc/fstab"
    (List.init real_devices (fun b ->
         Printf.sprintf "%s %s vfat user 0 0" (device b) (media_dir b))
     @ List.init decoy_mounts (fun n ->
           Printf.sprintf "/dev/decoy%d /media/decoy%d ext4 user 0 0" n n));
  append_file m kt "/etc/bind"
    (List.concat
       (List.init services (fun k ->
            [ Printf.sprintf "%d tcp %s %d" (service_port Sock_stream k)
                (service_exe k) (service_uid k);
              Printf.sprintf "%d udp %s %d" (service_port Sock_dgram k)
                (service_exe k) (service_uid k) ]))
     @ List.init decoy_binds (fun n ->
           Printf.sprintf "%d %s /usr/sbin/decoy%d %d" (200 + (n / 2))
             (if n mod 2 = 0 then "tcp" else "udp") n (3000 + n)));
  append_file m kt "/etc/ppp/options"
    (List.init real_serial (Printf.sprintf "allow-device /dev/ttyUSB%d")
     @ List.init decoy_serial (Printf.sprintf "allow-device /dev/ttyD%d"));
  (match img.Image.daemon with
   | Some d -> ignore (Daemon.step d)
   | None -> ());
  for i = 0 to nf_blocks - 1 do
    Netfilter.append m.netfilter Netfilter.Output
      { Netfilter.matches =
          [ Netfilter.Proto Packet.Udp;
            Netfilter.Dst (Ipaddr.Cidr.make (Ipaddr.v 203 0 i 0) 24);
            Netfilter.Dst_port { lo = nf_block_lo i; hi = nf_block_lo i + 3 } ];
        target = Netfilter.Drop; comment = Printf.sprintf "block-%d" i }
  done;
  let tasks =
    Array.append
      (Array.map (Image.login img) [| "alice"; "bob"; "charlie" |])
      (Array.init services (fun k ->
           let cred = Cred.make ~uid:(service_uid k) ~gid:(service_uid k) () in
           let t = Machine.spawn_task m ~cred ~cwd:"/" () in
           t.exe_path <- service_exe k;
           t))
  in
  let udp = Array.make users 0 in
  let udp_port = Array.make users 0 in
  for u = 0 to users - 1 do
    let t = tasks.(u) in
    let fd = expect "socket" (Syscall.socket m t Af_inet Sock_dgram 17) in
    expect "bind" (Syscall.bind m t fd Ipaddr.any 0);
    udp.(u) <- fd;
    udp_port.(u) <-
      (match (socket_of t fd).bound with Some (_, p) -> p | None -> 0)
  done;
  let ppp_fd =
    expect "open /dev/ttyS0" (Syscall.open_ m tasks.(0) "/dev/ttyS0" [ Syscall.O_RDWR ])
  in
  let hook_socks =
    Array.map
      (fun t ->
        Array.map
          (fun st ->
            socket_of t
              (expect "socket" (Syscall.socket m t Af_inet st (sock_proto st))))
          [| Sock_stream; Sock_dgram |])
      tasks
  in
  { img; m; tasks; udp; udp_port; ppp_fd; scratch = Array.make (Array.length tasks) (-1);
    hook_socks }

let lsm env =
  match env.img.Image.protego with
  | Some l -> l
  | None -> failwith "perfbench: not a Protego image"

let packet env o dst port payload =
  { Packet.src = Ipaddr.localhost; dst; ttl = 64;
    transport = Packet.Udp_dgram { src_port = env.udp_port.(o.task); dst_port = port;
                                   payload } }

(* Check the generator's intent against the reference decision of each
   filtered hook; returns the number of disagreements. *)
let cross_check env ops =
  let st = Protego_core.Lsm.state (lsm env) in
  let bad = ref 0 in
  Array.iter
    (fun o ->
      let t = env.tasks.(o.task) in
      let allowed =
        match o.call with
        | Mount { source; target; fstype; flags } ->
            Some (PS.mount_decision st ~source ~target ~fstype ~flags)
        | Umount { target } ->
            Some (PS.umount_decision st ~target ~mounted_by:t.cred.ruid
                    ~ruid:t.cred.ruid)
        | Bind { stype; port } ->
            Some (PS.bind_allowed st ~port ~proto:(bind_proto stype)
                    ~exe:t.exe_path ~uid:t.cred.euid)
        | Sendto { dst; port; payload } ->
            Some (Netfilter.walk env.m.netfilter Netfilter.Output
                    (packet env o dst port payload) ~origin:Packet.Kernel_stack
                  = Netfilter.Accept)
        | Ppp_ioctl { dev; opt } -> Some (PS.ppp_ioctl_decision st ~device:dev ~opt)
        | Socket _ | Close | Stat _ | Open _ | Read -> None
      in
      match allowed with
      | Some a when a <> (o.expect = ok) -> incr bad
      | _ -> ())
    ops;
  !bad

(* --- the three depths ------------------------------------------------- *)

(* Depth 0: the system call itself. *)
let exec env o =
  let m = env.m and t = env.tasks.(o.task) in
  match o.call with
  | Mount { source; target; fstype; flags } ->
      code (Syscall.mount m t ~source ~target ~fstype ~flags)
  | Umount { target } -> code (Syscall.umount m t ~target)
  | Socket { stype } -> (
      match Syscall.socket m t Af_inet stype (sock_proto stype) with
      | Ok fd -> env.scratch.(o.task) <- fd; ok
      | Error e -> err e)
  | Bind { port; _ } -> code (Syscall.bind m t env.scratch.(o.task) Ipaddr.any port)
  | Close -> code (Syscall.close m t env.scratch.(o.task))
  | Sendto { dst; port; payload } ->
      code (Syscall.sendto m t env.udp.(o.task) dst port payload)
  | Ppp_ioctl { dev; opt } ->
      code (Syscall.ioctl m t env.ppp_fd
              (Ioctl_modem_config { ioctl_dev = dev; ppp_opt = opt }))
  | Stat { path } -> code (Syscall.stat m t path)
  | Open { path } -> (
      match Syscall.open_ m t path [ Syscall.O_RDONLY ] with
      | Ok fd -> env.scratch.(o.task) <- fd; ok
      | Error e -> err e)
  | Read -> code (Syscall.read m t env.scratch.(o.task) 64)

let nf_code = function
  | Netfilter.Accept -> ok
  | Netfilter.Drop -> err Errno.EPERM
  | Netfilter.Reject -> err Errno.EACCES

(* Depth 1: the machine's hook points — the [security_ops] fields and the
   netfilter OUTPUT evaluation the egress path calls.  [pkts.(i)] is the
   packet the kernel would have built for a Sendto at position [i]. *)
let exec_hook env pkts i o =
  let m = env.m and t = env.tasks.(o.task) in
  match o.call with
  | Mount { source; target; fstype; flags } ->
      code (m.security.sb_mount m t ~source ~target ~fstype ~flags)
  | Umount { target } -> code (m.security.sb_umount m t ~target)
  | Bind { stype; port } ->
      let s = env.hook_socks.(o.task).(if stype = Sock_stream then 0 else 1) in
      code (m.security.socket_bind m t s Ipaddr.any port)
  | Sendto _ ->
      nf_code (Netfilter.eval m.netfilter Netfilter.Output pkts.(i)
                 ~origin:Packet.Kernel_stack)
  | Ppp_ioctl { dev; opt } ->
      code (m.security.file_ioctl m t
              (Ioctl_modem_config { ioctl_dev = dev; ppp_opt = opt }))
  | Socket _ | Close | Stat _ | Open _ | Read -> ok

let of_bool e b = if b then ok else err e

(* Depth 2: the dispatcher's decision, as the hook would ask for it. *)
let exec_decide env disp st pkts i o =
  let t = env.tasks.(o.task) in
  let phase = t.sec.phase in
  match o.call with
  | Mount { source; target; fstype; flags } ->
      of_bool Errno.EPERM
        (Disp.decide_mount disp ~subject:t.cred.ruid ~phase st ~source ~target
           ~fstype ~flags)
  | Umount { target } ->
      of_bool Errno.EPERM
        (Disp.decide_umount disp ~phase st ~target ~mounted_by:t.cred.ruid
           ~ruid:t.cred.ruid)
  | Bind { stype; port } ->
      of_bool Errno.EACCES
        (Disp.decide_bind disp ~phase st ~port ~proto:(bind_proto stype)
           ~exe:t.exe_path ~uid:t.cred.euid)
  | Sendto _ ->
      nf_code
        (Disp.decide_nf_output disp env.m.netfilter pkts.(i)
           ~origin:Packet.Kernel_stack)
  | Ppp_ioctl { dev; opt } ->
      of_bool Errno.EPERM
        (Disp.decide_ppp_ioctl disp ~subject:t.cred.ruid ~phase st ~device:dev ~opt)
  | Socket _ | Close | Stat _ | Open _ | Read -> ok

(* --- passes ------------------------------------------------------------ *)

(* Per-pass accumulators: per-call ns by hook (index 5 = unhooked). *)
type acc = {
  mutable calls : int;
  mutable errors : int;
  mutable words : float;
  ns : float array;     (* by hook_of + 1 .. ; slot 5 = unhooked *)
  count : int array;
}

let acc () =
  { calls = 0; errors = 0; words = 0.; ns = Array.make 6 0.; count = Array.make 6 0 }

let slot o = match hook_of o.call with -1 -> 5 | h -> h

let hooked_ns a = a.ns.(0) +. a.ns.(1) +. a.ns.(2) +. a.ns.(3) +. a.ns.(4)
let hooked_count a = a.count.(0) + a.count.(1) + a.count.(2) + a.count.(3) + a.count.(4)
let all_ns a = hooked_ns a +. a.ns.(5)
let all_count a = hooked_count a + a.count.(5)

(* Run [f i o] over [ops] with a clock pair around each call; per-call
   latencies land in [lat], results are checked against [o.expect]. *)
let timed_pass a lat ops f =
  let n = Array.length ops in
  let res = Array.make n 0 in
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    let o = Array.unsafe_get ops i in
    let t0 = now () in
    let c = match f i o with c -> c | exception _ -> -1 in
    let t1 = now () in
    Array.unsafe_set lat i (t1 - t0);
    Array.unsafe_set res i c
  done;
  a.words <- a.words +. (Gc.minor_words () -. w0);
  for i = 0 to n - 1 do
    let o = ops.(i) in
    let s = slot o in
    a.ns.(s) <- a.ns.(s) +. float_of_int lat.(i);
    a.count.(s) <- a.count.(s) + 1;
    if res.(i) <> o.expect then a.errors <- a.errors + 1
  done;
  a.calls <- a.calls + n

(* The kernel log is a bounded ring on a real machine; the simulator's is
   an unbounded list, so each pass ends by emptying it. *)
let end_pass env = env.m.dmesg <- []

type setup = {
  env : env;
  ops : op array;
  generate_s : float;
  mismatches : int;
}

let prepare ?(config = Image.Protego) ~seed () =
  let env = build config in
  let t0 = now () in
  let ops = generate ~seed requests_per_pass in
  let generate_s = seconds_since t0 in
  let mismatches = if config = Image.Protego then cross_check env ops else 0 in
  (* warm-up pass, discarded *)
  let ops' = fresh_stream ops in
  Array.iter (fun o -> ignore (exec env o)) ops';
  end_pass env;
  { env; ops; generate_s; mismatches }

let info s seed =
  let st = Protego_core.Lsm.state (lsm s.env) in
  [ Printf.sprintf "stream: %d requests -> %d syscalls per pass (%d hooked), seed %d, digest %s"
      requests_per_pass (Array.length s.ops)
      (Array.fold_left (fun n o -> if hook_of o.call >= 0 then n + 1 else n) 0 s.ops)
      seed (digest s.ops);
    Printf.sprintf
      "policy: %d mount rules, %d bind entries, %d ppp directives, %d OUTPUT rules"
      (List.length st.PS.mounts) (List.length st.PS.binds)
      (List.length st.PS.ppp.Protego_policy.Pppopts.directives)
      (List.length (Netfilter.rules s.env.m.netfilter Netfilter.Output));
    "loop: closed, one caller, fresh argument strings per request" ]

(* --- the untraced run ------------------------------------------------- *)

let run ~seed ~seconds =
  let s, setup_s = timed_setups (fun () -> prepare ~seed ()) in
  let env = s.env in
  let n = Array.length s.ops in
  let lat = Array.make n 0 in
  let a = acc () in
  let passes = ref [] in  (* per pass: per-call ns, p50, p99, speed factor *)
  let sorted = Array.make n 0. in
  for_seconds seconds (fun () ->
      let ops = fresh_stream s.ops in
      let ns0 = all_ns a in
      timed_pass a lat ops (fun _ o -> exec env o);
      let per_op = (all_ns a -. ns0) /. float_of_int n in
      end_pass env;
      for i = 0 to n - 1 do sorted.(i) <- float_of_int lat.(i) done;
      Array.sort compare sorted;
      let f = speed_factor () in
      passes := (per_op, percentile sorted 50., percentile sorted 99., f) :: !passes);
  let med g = median_of_list (List.map g !passes) in
  let calls = a.calls in
  let failed = a.errors + s.mismatches in
  { attempted = calls; failed;
    metrics =
      [ m "throughput_ops_s" "ops/s" (med (fun (x, _, _, f) -> 1e9 /. (x *. f)));
        m "latency_p50_us" "us" (med (fun (_, p, _, f) -> p *. f) /. 1e3);
        m "latency_p99_us" "us" (med (fun (_, _, p, f) -> p *. f) /. 1e3);
        m "alloc_words_per_op" "words" (a.words /. float_of_int calls);
        m "heap_peak_mb" "MiB" (heap_peak_mb ());
        m "error_ratio" "fraction" (float_of_int failed /. float_of_int calls);
        m "setup_s" "s" setup_s ];
    notes =
      info s seed
      @ [ Printf.sprintf
            "latency: per-syscall clock pairs; p50/p99 are medians of each pass's \
             percentile (%d samples per pass, %d syscalls in all)"
            n calls;
          calibration_note ~factors:(List.map (fun (_, _, _, f) -> f) !passes)
            ~passes:(List.length !passes);
          Printf.sprintf "wall clock, not rescaled: %.0f ops/s"
            (med (fun (x, _, _, _) -> 1e9 /. x));
          Printf.sprintf "reference cross-check: %d disagreements" s.mismatches ] }

(* --- the traced run ---------------------------------------------------- *)

let disp_totals disp =
  List.fold_left
    (fun (ev, ins) (_, (h : Disp.hook_stats)) -> (ev + h.Disp.evals, ins + h.Disp.insns))
    (0, 0) (Disp.stats disp)

let trace_run ~seed ~seconds =
  let plain = prepare ~seed () in
  let traced = prepare ~seed () in
  let linux = prepare ~config:Image.Linux ~seed () in
  let ops = plain.ops in
  let n = Array.length ops in
  let hooked = Array.of_list (List.filter (fun o -> hook_of o.call >= 0) (Array.to_list ops)) in
  let nh = Array.length hooked in
  let lat = Array.make n 0 in
  let penv = plain.env in
  let plsm = lsm penv in
  let disp = Protego_core.Lsm.dispatch plsm and st = Protego_core.Lsm.state plsm in
  let tdisp = Protego_core.Lsm.dispatch (lsm traced.env) in
  let tr = Disp.trace tdisp in
  Trace.set_clock tr now;
  Trace.set_span_capacity tr (2 * nh);
  Trace.set_spans tr true;
  let d0 = acc () and d0t = acc () and d1 = acc () and d2 = acc () and lx = acc () in
  let audit0 = ref 0 in
  let cache = Disp.cache disp in
  let hits = ref 0 and misses = ref 0 and stale = ref 0 and evicted = ref 0 in
  let evals = ref 0 and insns = ref 0 and d0_passes = ref 0 in
  let stage_ns = Array.make 3 0. and stage_n = Array.make 3 0 in
  let mount_owned f =
    (* the hook-depth replay needs each medium mounted, so sb_umount finds
       the record; sb_mount itself does not check for a busy target *)
    Array.iter
      (fun o ->
        match o.call with
        | Mount { source; target; fstype; flags } when o.expect = ok ->
            ignore (Syscall.mount penv.m penv.tasks.(o.task) ~source ~target ~fstype ~flags)
        | _ -> ())
      ops;
    f ();
    Array.iter
      (fun o ->
        match o.call with
        | Umount { target } when o.expect = ok ->
            ignore (Syscall.umount penv.m penv.tasks.(o.task) ~target)
        | _ -> ())
      ops;
    end_pass penv
  in
  let packets ops =
    let none = packet penv { (ops.(0)) with task = 0 } Ipaddr.localhost 0 "" in
    Array.map
      (fun o ->
        match o.call with
        | Sendto { dst; port; payload } -> packet penv o dst port payload
        | _ -> none)
      ops
  in
  for_seconds seconds (fun () ->
      (* depth 0, untraced *)
      let e0 = penv.m.audit.Protego_journal.Journal.sk_emitted in
      let h0 = DC.hits cache and m0 = DC.misses cache and s0 = DC.stale_evictions cache
      and c0 = DC.capacity_evictions cache in
      let ev0, in0 = disp_totals disp in
      timed_pass d0 lat (fresh_stream ops) (fun _ o -> exec penv o);
      end_pass penv;
      incr d0_passes;
      audit0 := !audit0 + penv.m.audit.Protego_journal.Journal.sk_emitted - e0;
      hits := !hits + DC.hits cache - h0;
      misses := !misses + DC.misses cache - m0;
      stale := !stale + DC.stale_evictions cache - s0;
      evicted := !evicted + DC.capacity_evictions cache - c0;
      let ev1, in1 = disp_totals disp in
      evals := !evals + ev1 - ev0;
      insns := !insns + in1 - in0;
      (* depth 0 with spans on *)
      timed_pass d0t lat (fresh_stream ops) (fun _ o -> exec traced.env o);
      end_pass traced.env;
      List.iter
        (fun (sp : Trace.span) ->
          let prev = ref 0 in
          List.iteri
            (fun k (_, off) ->
              if k < 3 then begin
                stage_ns.(k) <- stage_ns.(k) +. float_of_int (off - !prev);
                stage_n.(k) <- stage_n.(k) + 1
              end;
              prev := off)
            sp.Trace.sp_stages)
        (Trace.spans tr);
      Trace.reset_spans tr;
      (* depth 1: the hook points *)
      let fresh = fresh_stream hooked in
      let pk = packets fresh in
      mount_owned (fun () ->
          timed_pass d1 (Array.make nh 0) fresh (fun i o -> exec_hook penv pk i o));
      (* depth 2: the dispatcher *)
      let fresh = fresh_stream hooked in
      let pk = packets fresh in
      timed_pass d2 (Array.make nh 0) fresh (fun i o -> exec_decide penv disp st pk i o);
      (* the Linux baseline, same stream; outcomes differ by design *)
      let lx_errors = lx.errors in
      timed_pass lx lat (fresh_stream ops) (fun _ o -> exec linux.env o);
      lx.errors <- lx_errors;
      end_pass linux.env);
  let cp = Lazy.force clock_pair_ns in
  let per a = (all_ns a /. float_of_int (all_count a)) -. cp in
  let per_hooked a = (hooked_ns a /. float_of_int (hooked_count a)) -. cp in
  let per_hook a h =
    if a.count.(h) = 0 then 0. else (a.ns.(h) /. float_of_int a.count.(h)) -. cp
  in
  let fi = float_of_int in
  let stage k = if stage_n.(k) = 0 then 0. else stage_ns.(k) /. fi stage_n.(k) in
  let decisions = hooked_count d0 in
  let attempted = d0.calls + d0t.calls + d1.calls + d2.calls in
  let failed = d0.errors + d0t.errors + d1.errors + d2.errors + plain.mismatches in
  let metrics =
    [ m "kernel.syscall_ns" "ns" (per d0);
      m "kernel.self_ns" "ns" (per_hooked d0 -. per_hooked d1);
      m "kernel.words_per_op" "words" (d0.words /. fi d0.calls);
      m "kernel.linux_syscall_ns" "ns" (per lx);
      m "audit.records_per_op" "count" (fi !audit0 /. fi d0.calls);
      m "lsm.hook_ns" "ns" (per_hooked d1);
      m "lsm.self_ns" "ns" (per_hooked d1 -. per_hooked d2);
      m "lsm.words_per_op" "words" (d1.words /. fi d1.calls);
      m "pfm_dispatch.decide_ns" "ns" (per_hooked d2) ]
    @ List.mapi
        (fun h name -> m ("pfm_dispatch.decide_ns." ^ name) "ns" (per_hook d2 h))
        (Array.to_list hook_names)
    @ [ m "pfm_dispatch.slot_ns" "ns" (stage 0);
        m "pfm_dispatch.table_ns" "ns" (stage 1);
        m "pfm_dispatch.engine_ns" "ns" (stage 2);
        m "pfm_dispatch.words_per_op" "words" (d2.words /. fi d2.calls);
        m "decision_cache.hit_ratio" "fraction" (fi !hits /. fi (!hits + !misses));
        m "decision_cache.stale_evictions" "count/pass" (fi !stale /. fi !d0_passes);
        m "decision_cache.capacity_evictions" "count/pass" (fi !evicted /. fi !d0_passes);
        m "pfm.evals_per_op" "count" (fi !evals /. fi decisions);
        m "pfm.insns_per_eval" "count" (if !evals = 0 then 0. else fi !insns /. fi !evals);
        m "workload.generate_s" "s" plain.generate_s;
        m "trace.overhead_pct" "%" (100. *. ((per d0t /. per d0) -. 1.)) ]
  in
  { attempted; failed; metrics;
    notes =
      info plain seed
      @ [ Printf.sprintf
            "depths per pass: syscall (%d calls), hook points (%d), dispatcher (%d); \
             %d passes; per-call means less a %.1f ns clock pair"
            n nh nh !d0_passes cp;
          Printf.sprintf
            "spans: %d slot / %d table / %d engine stages from the Trace span ring \
             on a second, traced image"
            stage_n.(0) stage_n.(1) stage_n.(2);
          "kernel.linux_syscall_ns: the same stream on the Linux image; its \
           outcomes differ by design and are not checked" ] }
