(* Helpers shared across the test suites: the deterministic counter
   clock and the reference-oracle and string-matching utilities that
   used to be copy-pasted into test_plane, test_trace and
   test_interleave. *)

module PS = Protego_core.Policy_state
module Plane = Protego_plane.Plane
module Snapshot = Protego_plane.Snapshot

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let starts_with haystack prefix =
  String.length haystack >= String.length prefix
  && String.sub haystack 0 (String.length prefix) = prefix

(* A deterministic "clock": the k-th reading is [k * step] ns.  What
   every suite installs via [Plane.set_clock] / [Trace.set_clock] to
   make wall/batch timing reproducible. *)
let counter_clock ?(step = 10) () =
  let c = ref 0 in
  fun () ->
    incr c;
    !c * step

(* Minor words allocated per call of [f] over [n] calls.  The two
   [Gc.minor_words] reads box one float between them, which spreads to
   well under a word per call. *)
let words_per_call n f =
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do f i done;
  (Gc.minor_words () -. before) /. float_of_int n

(* The uncached, unsnapshotted reference verdict straight off the live
   policy state — what every plane decision must agree with as long as
   reloads are semantics-preserving. *)
let oracle : PS.t -> Plane.request -> bool = Plane.request_oracle

(* The same reference verdict against a frozen snapshot. *)
let snapshot_oracle : Snapshot.t -> Plane.request -> bool =
  Plane.snapshot_oracle

(* --- one driver per ladder hook ------------------------------------------- *)

module PD = Protego_core.Pfm_dispatch

(* Which caller of the shared decision ladder a driver runs through:
   the sequential dispatcher, or worker 0 of a plane built over
   {!driver_state} (its four hooks; nf_output is dispatcher-only). *)
type caller = Dispatcher of PD.t | Plane_worker of Plane.t

(* A hook under test: [hd_decide i] runs the hook on the [i land 1]-th
   of two interned argument sets, so alternating indices miss the
   one-entry front slot (it holds the other set) and hit the memo
   table, while a constant index hits the front slot.  Index 0 is
   allowed by the driver's policy, index 1 denied. *)
type hook_driver = { hd_name : string; hd_decide : int -> unit }

let driver_state () =
  let st = PS.create () in
  let ok = function Ok v -> v | Error e -> failwith ("driver_state: " ^ e) in
  PS.set_mounts st (ok (PS.parse_mounts "allow /dev/a /m ext4 - users\n"));
  PS.set_binds st (ok (Protego_policy.Bindconf.parse "25 tcp /usr/sbin/exim4 0\n"));
  PS.set_ppp st (ok (Protego_policy.Pppopts.parse "allow-device /dev/ttyS0\n"));
  st

let sources = [| "/dev/a"; "/dev/b" |] and targets = [| "/m"; "/n" |]
let ports = [| 25; 80 |]
let opts = [| Protego_net.Ppp.Accomp; Protego_net.Ppp.Default_route |]

let plane_drivers p =
  let two name f =
    let reqs = [| f 0; f 1 |] in
    { hd_name = name;
      hd_decide =
        (fun i ->
          ignore (Plane.decide_on p ~worker:0 reqs.(i land 1) : Plane.outcome)) }
  in
  [ two "mount" (fun i ->
        Plane.Mount
          { subject = 1; source = sources.(i); target = "/m"; fstype = "ext4";
            flags = [] });
    two "umount" (fun i ->
        Plane.Umount { subject = 1; target = targets.(i); mounted_by = 1 });
    two "bind" (fun i ->
        Plane.Bind
          { subject = 0; port = ports.(i); proto = Protego_policy.Bindconf.Tcp;
            exe = "/usr/sbin/exim4" });
    two "ppp_ioctl" (fun i ->
        Plane.Ppp_ioctl { subject = 1; device = "/dev/ttyS0"; opt = opts.(i) }) ]

let dispatcher_drivers disp =
  let module NF = Protego_net.Netfilter in
  let module Packet = Protego_net.Packet in
  let st = driver_state () in
  let nf = NF.create ~output_policy:NF.Accept () in
  NF.append nf NF.Output
    { NF.matches = [ NF.Dst_port { lo = 25; hi = 25 } ]; target = NF.Drop;
      comment = "" };
  let pkt dport =
    { Packet.src = Protego_net.Ipaddr.v 10 0 0 2;
      dst = Protego_net.Ipaddr.v 8 8 8 8; ttl = 64;
      transport =
        Packet.Udp_dgram { src_port = 5353; dst_port = dport; payload = "" } }
  in
  let pkts = [| pkt 53; pkt 25 |] in
  [ { hd_name = "mount";
      hd_decide =
        (fun i ->
          ignore
            (PD.decide_mount disp ~subject:1 st ~source:sources.(i land 1)
               ~target:"/m" ~fstype:"ext4" ~flags:[]
              : bool)) };
    { hd_name = "umount";
      hd_decide =
        (fun i ->
          ignore
            (PD.decide_umount disp st ~target:targets.(i land 1) ~mounted_by:1
               ~ruid:1
              : bool)) };
    { hd_name = "bind";
      hd_decide =
        (fun i ->
          ignore
            (PD.decide_bind disp st ~port:ports.(i land 1)
               ~proto:Protego_policy.Bindconf.Tcp ~exe:"/usr/sbin/exim4" ~uid:0
              : bool)) };
    { hd_name = "ppp_ioctl";
      hd_decide =
        (fun i ->
          ignore
            (PD.decide_ppp_ioctl disp ~subject:1 st ~device:"/dev/ttyS0"
               ~opt:opts.(i land 1)
              : bool)) };
    { hd_name = "nf_output";
      hd_decide =
        (fun i ->
          ignore
            (PD.decide_nf_output disp nf pkts.(i land 1)
               ~origin:Packet.Kernel_stack
              : NF.verdict)) } ]

let hook_drivers = function
  | Dispatcher disp -> dispatcher_drivers disp
  | Plane_worker p -> plane_drivers p
