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
