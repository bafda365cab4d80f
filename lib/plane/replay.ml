module J = Protego_journal.Journal
module PS = Protego_core.Policy_state
module Errno = Protego_base.Errno
module Ktypes = Protego_kernel.Ktypes

type mismatch = {
  mm_seq : int;
  mm_field : string;
  mm_expected : string;
  mm_got : string;
}

type report = {
  rp_total : int;
  rp_matched : int;
  rp_mismatches : mismatch list;
  rp_missing_epochs : int list;
}

(* The journal stores the compiled flags mask (Pfm_compile.flags_mask);
   the reference oracle wants the flag list back.  Bit order is the
   compiler's: ro=1, nosuid=2, nodev=4, noexec=8. *)
let flag_bits =
  [ (Ktypes.Mf_readonly, 1); (Ktypes.Mf_nosuid, 2); (Ktypes.Mf_nodev, 4);
    (Ktypes.Mf_noexec, 8) ]

let flags_of_mask m =
  List.filter_map
    (fun (f, b) -> if m land b <> 0 then Some f else None)
    flag_bits

let verdict_name = function
  | 0 -> "deny"
  | 1 -> "allow"
  | 2 -> "reject"
  | v -> Printf.sprintf "verdict:%d" v

let errno_name = function
  | 0 -> "none"
  | c -> (
      match Errno.of_code c with
      | Some e -> Errno.to_string e
      | None -> Printf.sprintf "errno:%d" c)

(* Each record kind carries its served phase stamped inside one request
   string ({!Plane.split_phase}); peel it off and re-evaluate under
   exactly that phase, so a decision journaled across a phase
   transition replays against the phase that actually served it. *)
let expected_allow (snap : Snapshot.t) (dec : J.decision) =
  let frozen = snap.Snapshot.frozen in
  match dec.J.d_req with
  | J.Mount { source; target; fstype; flags } ->
      let ph, source = Plane.split_phase source in
      PS.mount_decision ~phase:(Protego_base.Phase.of_index ph) frozen ~source
        ~target ~fstype ~flags:(flags_of_mask flags)
  | J.Umount { target; mounted_by } ->
      let ph, target = Plane.split_phase target in
      PS.umount_decision ~phase:(Protego_base.Phase.of_index ph) frozen ~target
        ~mounted_by ~ruid:dec.J.d_subject
  | J.Bind { port; proto; exe } ->
      let ph, exe = Plane.split_phase exe in
      let proto =
        if proto = 1 then Protego_policy.Bindconf.Udp
        else Protego_policy.Bindconf.Tcp
      in
      PS.bind_allowed ~phase:(Protego_base.Phase.of_index ph) frozen ~port
        ~proto ~exe ~uid:dec.J.d_subject
  | J.Ppp { device; safe } ->
      (* The ppp decision depends only on (device, option safety); any
         option of the recorded safety class reproduces it. *)
      let ph, device = Plane.split_phase device in
      let opt =
        if safe then Protego_net.Ppp.Accomp else Protego_net.Ppp.Default_route
      in
      PS.ppp_ioctl_decision ~phase:(Protego_base.Phase.of_index ph) frozen
        ~device ~opt

let deny_errno (dec : J.decision) =
  match dec.J.d_req with
  | J.Bind _ -> Errno.to_code Errno.EACCES
  | J.Mount _ | J.Umount _ | J.Ppp _ -> Errno.to_code Errno.EPERM

let replay ~snapshot_of_epoch (ds : J.decision array) =
  let mismatches = ref [] in
  let missing = ref [] in
  let matched = ref 0 in
  Array.iter
    (fun (dec : J.decision) ->
      match snapshot_of_epoch dec.J.d_epoch with
      | None ->
          if not (List.mem dec.J.d_epoch !missing) then
            missing := dec.J.d_epoch :: !missing
      | Some snap ->
          let allow = expected_allow snap dec in
          let exp_verdict = if allow then 1 else 0 in
          let exp_errno = if allow then 0 else deny_errno dec in
          let ok = ref true in
          if dec.J.d_verdict <> exp_verdict then begin
            ok := false;
            mismatches :=
              { mm_seq = dec.J.d_seq; mm_field = "verdict";
                mm_expected = verdict_name exp_verdict;
                mm_got = verdict_name dec.J.d_verdict }
              :: !mismatches
          end;
          if dec.J.d_errno <> exp_errno then begin
            ok := false;
            mismatches :=
              { mm_seq = dec.J.d_seq; mm_field = "errno";
                mm_expected = errno_name exp_errno;
                mm_got = errno_name dec.J.d_errno }
              :: !mismatches
          end;
          if !ok then incr matched)
    ds;
  { rp_total = Array.length ds;
    rp_matched = !matched;
    rp_mismatches = List.rev !mismatches;
    rp_missing_epochs = List.rev !missing }

let replay_run plane ~run ~count =
  match J.stitch (Plane.journal plane) ~run ~base:0 ~count with
  | Error e -> failwith ("Replay.replay_run: " ^ e)
  | Ok ds -> replay ~snapshot_of_epoch:(Plane.snapshot_at plane) ds

let render r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "replay total %d matched %d mismatches %d\n" r.rp_total
       r.rp_matched
       (List.length r.rp_mismatches));
  List.iter
    (fun m ->
      Buffer.add_string b
        (Printf.sprintf "mismatch seq %d field %s expected %s got %s\n"
           m.mm_seq m.mm_field m.mm_expected m.mm_got))
    r.rp_mismatches;
  List.iter
    (fun e ->
      Buffer.add_string b (Printf.sprintf "missing epoch %d\n" e))
    r.rp_missing_epochs;
  Buffer.contents b
