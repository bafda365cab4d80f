(* The [journal-replay] workload: what an operator's
   [protego-journal verify] does.  Set-up records a plane-hot-shaped run
   into a journal file; each timed pass loads the file, stitches the run
   back into submission order and replays every record against the
   snapshot its epoch names.  It is the only workload that reads the
   audit layer back. *)

module PS = Protego_core.Policy_state
module Plane = Protego_plane.Plane
module Replay = Protego_plane.Replay
module Workload = Protego_workload.Workload
module J = Protego_journal.Journal
open Measure

let records = 8192

type env = {
  plane : Plane.t;   (* holds the snapshot history the replay reads *)
  path : string;
  sched : Workload.schedule;
  generate_s : float;
}

let prepare ~seed ~path =
  let sp = Workload.default ~seed ~phases:[ (Workload.Steady, records) ] () in
  let st = PS.create () in
  Workload.install_policy sp st;
  let plane = Plane.create ~domains:1 ~journal_seg_bytes:65536 ~journal_segments:32 st in
  let t0 = now () in
  let sched = Workload.generate sp ~workers:1 in
  let generate_s = seconds_since t0 in
  ignore (Plane.run plane ~collect:false sched.Workload.s_requests);
  J.save (Plane.journal plane) path;
  { plane; path; sched; generate_s }

type stage_ns = { mutable load : int; mutable stitch : int; mutable replay : int }

(* One pass; returns the replay report, or [None] when a stage failed.
   With [stages], each stage is timed by its own clock pair and the
   replay stage's allocation is added to [replay_words]. *)
let pass ?stages ?replay_words env =
  let clock () = match stages with Some _ -> now () | None -> 0 in
  let t0 = clock () in
  match J.load env.path with
  | Error _ -> None
  | Ok j -> (
      let t1 = clock () in
      match J.stitch j ~run:0 ~base:0 ~count:records with
      | Error _ -> None
      | Ok ds ->
          let t2 = clock () in
          let w0 = match replay_words with Some _ -> Gc.minor_words () | None -> 0. in
          let r = Replay.replay ~snapshot_of_epoch:(Plane.snapshot_at env.plane) ds in
          let t3 = clock () in
          (match replay_words with
           | Some w -> w := !w +. (Gc.minor_words () -. w0)
           | None -> ());
          (match stages with
           | Some t ->
               t.load <- t.load + (t1 - t0);
               t.stitch <- t.stitch + (t2 - t1);
               t.replay <- t.replay + (t3 - t2)
           | None -> ());
          Some r)

let unmatched = function
  | None -> records
  | Some (r : Replay.report) ->
      records - r.Replay.rp_matched + List.length r.Replay.rp_mismatches
      + List.length r.Replay.rp_missing_epochs
      |> min records

let info env seed =
  [ Printf.sprintf
      "journal: %d decision records of a plane-hot-shaped run, seed %d, schedule digest %s, \
       %d-byte file"
      records seed (Plane_wl.digest env.sched)
      (Unix.stat env.path).Unix.st_size;
    "pass: Journal.load + Journal.stitch + Replay.replay, one closed-loop caller" ]

(* A pass is one latency sample.  As the other workloads take p50/p99
   within a pass and report their median over passes, this one takes
   them within groups of [group] consecutive passes and reports their
   median over groups.  A trailing partial group is dropped unless it
   is the only one.  Each group comes back sorted. *)
let group = 32

let latency_groups samples =
  let sorted l = let a = Array.of_list l in Array.sort compare a; a in
  let rec go acc cur k = function
    | [] -> if acc = [] || k = group then sorted cur :: acc else acc
    | x :: rest when k = group -> go (sorted cur :: acc) [ x ] 1 rest
    | x :: rest -> go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 samples

let run ~seed ~seconds ~path =
  let env, setup_s =
    timed_setups (fun () ->
        let env = prepare ~seed ~path in
        ignore (pass env);
        env)
  in
  let passes = ref [] in  (* per-record ns of each pass, speed factor *)
  let ops = ref 0 and words = ref 0. and bad = ref 0 in
  for_seconds seconds (fun () ->
      let w0 = Gc.minor_words () in
      let t0 = now () in
      let r = pass env in
      let dt = now () - t0 in
      words := !words +. (Gc.minor_words () -. w0);
      ops := !ops + records;
      bad := !bad + unmatched r;
      passes := (float_of_int dt /. float_of_int records, speed_factor ()) :: !passes);
  let per_record = List.rev_map (fun (x, f) -> x *. f) !passes in
  let groups = latency_groups per_record in
  let med p = median_of_list (List.map (fun g -> percentile g p) groups) in
  { attempted = !ops; failed = !bad;
    metrics =
      [ m "throughput_ops_s" "ops/s" (1e9 /. median_of_list per_record);
        m "latency_p50_us" "us" (med 50. /. 1e3);
        m "latency_p99_us" "us" (med 99. /. 1e3);
        m "alloc_words_per_op" "words" (!words /. float_of_int !ops);
        m "heap_peak_mb" "MiB" (heap_peak_mb ());
        m "error_ratio" "fraction" (float_of_int !bad /. float_of_int !ops);
        m "setup_s" "s" setup_s ];
    notes =
      info env seed
      @ [ Printf.sprintf
            "latency: per-record time of each pass; p50/p99 are medians of the \
             percentiles of %d groups of %d consecutive passes"
            (List.length groups) group;
          calibration_note ~factors:(List.map snd !passes) ~passes:(List.length !passes);
          Printf.sprintf "wall clock, not rescaled: %.0f ops/s"
            (1e9 /. median_of_list (List.map fst !passes)) ] }

let trace_run ~seed ~seconds ~path =
  let env = prepare ~seed ~path in
  ignore (pass env);
  let t = { load = 0; stitch = 0; replay = 0 } in
  let words = ref 0. and passes = ref 0 and bad = ref 0 and matched = ref 0 in
  let plain_ns = ref 0 and traced_ns = ref 0 in
  let timed f acc =
    let t0 = now () in
    let r = f () in
    acc := !acc + (now () - t0);
    r
  in
  for_seconds seconds (fun () ->
      let r0 = timed (fun () -> pass env) plain_ns in
      let r = timed (fun () -> pass ~stages:t ~replay_words:words env) traced_ns in
      passes := !passes + 1;
      bad := !bad + unmatched r0 + unmatched r;
      match r with Some r -> matched := !matched + r.Replay.rp_matched | None -> ());
  let n = float_of_int (!passes * records) in
  { attempted = 2 * !passes * records; failed = !bad;
    metrics =
      [ m "journal.load_ns_per_record" "ns" (float_of_int t.load /. n);
        m "journal.stitch_ns_per_record" "ns" (float_of_int t.stitch /. n);
        m "replay.ns_per_record" "ns" (float_of_int t.replay /. n);
        m "replay.words_per_record" "words" (!words /. n);
        m "replay.matched_ratio" "fraction" (float_of_int !matched /. n);
        m "workload.generate_s" "s" env.generate_s;
        m "trace.overhead_pct" "%"
          (100. *. ((float_of_int !traced_ns /. float_of_int !plain_ns) -. 1.)) ];
    notes =
      info env seed
      @ [ Printf.sprintf
            "%d pass pairs: one timed whole, one with each stage timed by its own \
             clock pair"
            !passes ] }
