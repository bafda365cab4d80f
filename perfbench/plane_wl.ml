(* The decision-plane workloads, [plane-hot] and [plane-churn], on one
   worker.  [Plane.run] spawns d worker domains while the calling domain
   coordinates reloads, so d workers occupy d+1 cores; on a two-core
   machine one worker is the configuration whose wall-clock figures mean
   something.

   [plane-hot] is the warm path: interned requests, zipf 1.1 over a
   256-request pool, so nearly every decision hits a front slot or the
   memo table and ladder overhead plus journal append dominate.
   [plane-churn] sends fresh requests over a 4096-request pool at zipf
   0.6 — far beyond the worker's 1024-entry cache — while reload and
   phase storms run beside the decisions, so the engine, memo-key build
   and snapshot publication dominate. *)

module PS = Protego_core.Policy_state
module Plane = Protego_plane.Plane
module Workload = Protego_workload.Workload
module J = Protego_journal.Journal
module Phase = Protego_base.Phase
module Errno = Protego_base.Errno
module Ppp = Protego_net.Ppp
open Measure

type kind = Hot | Churn

(* Requests per [Plane.run] call: the plane's own batch length. *)
let chunk = 1024
let pass_requests = 32 * chunk

let spec kind ~seed =
  match kind with
  | Hot -> Workload.default ~seed ~phases:[ (Workload.Steady, pass_requests) ] ()
  | Churn ->
      let third = pass_requests / 3 in
      { (Workload.default ~seed
           ~phases:
             [ (Workload.Reload_storm { period = 500 }, third);
               (Workload.Phase_storm { period = 500 }, third);
               (Workload.Deny_flood, pass_requests - (2 * third)) ]
           ())
        with Workload.zipf_s = 0.6; pool = 4096 }

(* --- fresh requests, digests ----------------------------------------- *)

let fresh_request = function
  | Plane.Mount { subject; source; target; fstype; flags } ->
      Plane.Mount { subject; source = fresh source; target = fresh target;
                    fstype = fresh fstype; flags = List.map Fun.id flags }
  | Plane.Umount { subject; target; mounted_by } ->
      Plane.Umount { subject; target = fresh target; mounted_by }
  | Plane.Bind { subject; port; proto; exe } ->
      Plane.Bind { subject; port; proto; exe = fresh exe }
  | Plane.Ppp_ioctl { subject; device; opt } ->
      Plane.Ppp_ioctl { subject; device = fresh device; opt = fresh_ppp_opt opt }

let request_strings = function
  | Plane.Mount { source; target; fstype; _ } -> [ source; target; fstype ]
  | Plane.Umount { target; _ } -> [ target ]
  | Plane.Bind { exe; _ } -> [ exe ]
  | Plane.Ppp_ioctl { device; opt = Ppp.Compression s | Ppp.Modem_flow_control s; _ } ->
      [ device; s ]
  | Plane.Ppp_ioctl { device; _ } -> [ device ]

let render_request = function
  | Plane.Mount { subject; source; target; fstype; flags } ->
      Printf.sprintf "mount %d %s %s %s %s" subject source target fstype
        (PS.flags_to_string flags)
  | Plane.Umount { subject; target; mounted_by } ->
      Printf.sprintf "umount %d %s %d" subject target mounted_by
  | Plane.Bind { subject; port; proto; exe } ->
      Printf.sprintf "bind %d %d %s %s" subject port
        (Protego_policy.Bindconf.proto_to_string proto) exe
  | Plane.Ppp_ioctl { subject; device; opt } ->
      Printf.sprintf "ppp %d %s %s" subject device (Ppp.option_to_string opt)

let digest (s : Workload.schedule) =
  digest_lines (fun line ->
      Array.iter (fun r -> line (render_request r)) s.Workload.s_requests;
      List.iter
        (fun (th, src) -> line (Printf.sprintf "reload %d %s" th (PS.source_name src)))
        s.Workload.s_reloads;
      List.iter
        (fun (th, subj) -> line (Printf.sprintf "phase %d %d" th subj))
        s.Workload.s_phase_steps)

(* --- set-up ------------------------------------------------------------ *)

type env = {
  kind : kind;
  plane : Plane.t;
  sched : Workload.schedule;
  actions : (int * (unit -> unit)) list;  (* ascending thresholds *)
  publishes : int ref;                    (* reload actions fired *)
  publish_ns : int ref;                   (* their time, when [timed] *)
  timed : bool ref;
  generate_s : float;
}

let prepare kind ~seed =
  let sp = spec kind ~seed in
  let st = PS.create () in
  Workload.install_policy sp st;
  let plane = Plane.create ~domains:1 st in
  let t0 = now () in
  let sched = Workload.generate sp ~workers:1 in
  let generate_s = seconds_since t0 in
  let publishes = ref 0 and publish_ns = ref 0 and timed = ref false in
  let reload src () =
    let t0 = if !timed then now () else 0 in
    PS.bump_generation st src;
    ignore (Plane.publish plane);
    incr publishes;
    if !timed then publish_ns := !publish_ns + (now () - t0)
  in
  let step subject () =
    ignore
      (Plane.set_subject_phase plane ~subject
         (Phase.succ (Plane.subject_phase plane ~subject)))
  in
  let actions =
    List.stable_sort
      (fun (a, _) (b, _) -> compare a b)
      (List.map (fun (th, src) -> (th, reload src)) sched.Workload.s_reloads
       @ List.map (fun (th, s) -> (th, step s)) sched.Workload.s_phase_steps)
  in
  { kind; plane; sched; actions; publishes; publish_ns; timed; generate_s }

let pass_stream env =
  match env.kind with
  | Hot -> env.sched.Workload.s_requests
  | Churn -> Array.map fresh_request env.sched.Workload.s_requests

let chunks env reqs =
  let n = Array.length reqs in
  let k = (n + chunk - 1) / chunk in
  Array.init k (fun c ->
      let a = c * chunk in
      let len = min chunk (n - a) in
      let acts =
        List.filter_map
          (fun (th, act) -> if th >= a && th < a + len then Some (th - a, act) else None)
          env.actions
      in
      (Array.sub reqs a len, acts))

(* --- checking ---------------------------------------------------------- *)

let phase_of_record = function
  | J.Mount { source; _ } -> fst (Plane.split_phase source)
  | J.Umount { target; _ } -> fst (Plane.split_phase target)
  | J.Bind { exe; _ } -> fst (Plane.split_phase exe)
  | J.Ppp { device; _ } -> fst (Plane.split_phase device)

let same_hook (r : Plane.request) (d : J.req) =
  match (r, d) with
  | Plane.Mount _, J.Mount _ | Plane.Umount _, J.Umount _
  | Plane.Bind _, J.Bind _ | Plane.Ppp_ioctl _, J.Ppp _ -> true
  | _ -> false

(* Compare every journaled outcome of runs [r0 ..] with the reference
   oracle over the snapshot its epoch names, in the phase it was served
   under.  Returns the number of wrong, missing or duplicated records. *)
let check env ~r0 (cs : (Plane.request array * _) array) =
  let plane = env.plane in
  let seen = Array.map (fun (reqs, _) -> Array.make (Array.length reqs) false) cs in
  let bad = ref 0 in
  J.iter (Plane.journal plane) (function
    | J.Kaudit _ -> ()
    | J.Decision d ->
        let c = d.J.d_run - r0 in
        if c >= 0 && c < Array.length cs then begin
          let reqs, _ = cs.(c) in
          if d.J.d_seq < 0 || d.J.d_seq >= Array.length reqs || seen.(c).(d.J.d_seq)
          then incr bad
          else begin
            seen.(c).(d.J.d_seq) <- true;
            let req = reqs.(d.J.d_seq) in
            let right =
              match Plane.snapshot_at plane d.J.d_epoch with
              | None -> false
              | Some snap -> (
                  match
                    Plane.snapshot_oracle
                      ~phase:(Phase.of_index (phase_of_record d.J.d_req)) snap req
                  with
                  | allowed ->
                      same_hook req d.J.d_req
                      && (d.J.d_verdict = 1) = allowed
                      && d.J.d_errno
                         = (if allowed then 0
                            else Errno.to_code (Plane.request_deny_errno req))
                  | exception _ -> false)
            in
            if not right then incr bad
          end
        end);
  Array.iter (Array.iter (fun s -> if not s then incr bad)) seen;
  !bad

(* --- passes ------------------------------------------------------------ *)

type acc = {
  mutable ops : int;
  mutable ns : float;
  mutable words : float;
  mutable errors : int;
  mutable passes : int;
}

let acc () = { ops = 0; ns = 0.; words = 0.; errors = 0; passes = 0 }

(* Depth 0: [Plane.run] per chunk, each chunk timed.  Returns the pass's
   per-decision time and the per-decision time of each chunk. *)
let run_pass env a =
  let plane = env.plane in
  let cs = chunks env (pass_stream env) in
  let r0 = Plane.runs plane in
  let w0 = Gc.minor_words () in
  let dts =
    Array.map
      (fun (reqs, reloads) ->
        let t0 = now () in
        ignore (Plane.run plane ~collect:false ~reloads reqs);
        now () - t0)
      cs
  in
  a.words <- a.words +. (Gc.minor_words () -. w0);
  let n = Array.length env.sched.Workload.s_requests in
  let ns = float_of_int (Array.fold_left ( + ) 0 dts) in
  a.ns <- a.ns +. ns;
  a.ops <- a.ops + n;
  a.passes <- a.passes + 1;
  a.errors <- a.errors + check env ~r0 cs;
  ( ns /. float_of_int n,
    Array.mapi (fun i dt -> float_of_int dt /. float_of_int (Array.length (fst cs.(i)))) dts )

(* Between passes: every subject back to its initial phase, so each pass
   runs the same phase storm.  The journal is a ring and keeps lapping,
   as in service; it holds several passes, so a pass's records are all
   still live when [check] reads them. *)
let end_pass env = Plane.reset_phases env.plane

(* Depths 1 and 2: the per-decision steps of a run through the public
   simulation hooks — decide, then (depth 1 only) journal the decision. *)
let sim_pass env a ~journal =
  let plane = env.plane in
  let reqs = pass_stream env in
  let run = Plane.sim_begin plane in
  let pending = ref env.actions in
  let w0 = Gc.minor_words () in
  let t0 = now () in
  Array.iteri
    (fun i req ->
      let rec fire () =
        match !pending with
        | (th, act) :: rest when th <= i -> act (); pending := rest; fire ()
        | _ -> ()
      in
      fire ();
      let o = Plane.decide_on plane ~worker:0 req in
      if journal then Plane.journal_decision plane ~worker:0 ~run ~seq:i req o)
    reqs;
  let dt = now () - t0 in
  a.words <- a.words +. (Gc.minor_words () -. w0);
  Plane.sim_end plane;
  a.ns <- a.ns +. float_of_int dt;
  a.ops <- a.ops + Array.length reqs;
  a.passes <- a.passes + 1

let name = function Hot -> "plane-hot" | Churn -> "plane-churn"

let info env seed =
  let s = env.sched in
  [ Printf.sprintf
      "schedule: %s, seed %d, %d requests per pass in %d-request Plane.run calls, \
       %d reloads, %d phase steps, digest %s"
      (name env.kind) seed (Array.length s.Workload.s_requests) chunk
      (List.length s.Workload.s_reloads) (List.length s.Workload.s_phase_steps)
      (digest s);
    Printf.sprintf "plane: 1 worker, audit %s, requests %s"
      (Plane.audit_mode_name (Plane.audit_mode env.plane))
      (match env.kind with Hot -> "interned" | Churn -> "fresh per pass") ]

let warm env =
  ignore (run_pass env (acc ()));
  end_pass env

let run kind ~seed ~seconds =
  let env, setup_s =
    timed_setups (fun () ->
        let env = prepare kind ~seed in
        warm env;
        env)
  in
  let a = acc () in
  let passes = ref [] in  (* per pass: per-decision ns, p50, p99, speed factor *)
  for_seconds seconds (fun () ->
      let per_op, per_chunk = run_pass env a in
      end_pass env;
      Array.sort compare per_chunk;
      passes :=
        (per_op, percentile per_chunk 50., percentile per_chunk 99., speed_factor ())
        :: !passes);
  let med g = median_of_list (List.map g !passes) in
  { attempted = a.ops; failed = a.errors;
    metrics =
      [ m "throughput_ops_s" "ops/s" (med (fun (x, _, _, f) -> 1e9 /. (x *. f)));
        m "latency_p50_us" "us" (med (fun (_, p, _, f) -> p *. f) /. 1e3);
        m "latency_p99_us" "us" (med (fun (_, _, p, f) -> p *. f) /. 1e3);
        m "alloc_words_per_op" "words" (a.words /. float_of_int a.ops);
        m "heap_peak_mb" "MiB" (heap_peak_mb ());
        m "error_ratio" "fraction" (float_of_int a.errors /. float_of_int a.ops);
        m "setup_s" "s" setup_s ];
    notes =
      info env seed
      @ [ Printf.sprintf
            "latency: per-decision time of each %d-request Plane.run call; p50/p99 are \
             medians of each pass's percentile (%d samples per pass)"
            chunk ((Array.length env.sched.Workload.s_requests + chunk - 1) / chunk);
          calibration_note ~factors:(List.map (fun (_, _, _, f) -> f) !passes)
            ~passes:(List.length !passes);
          Printf.sprintf "wall clock, not rescaled: %.0f ops/s"
            (med (fun (x, _, _, _) -> 1e9 /. x)) ] }

let hook_totals plane =
  List.fold_left
    (fun (d, h, e) (_, (t : Plane.hook_totals)) ->
      (d + t.Plane.ht_decisions, h + t.Plane.ht_hits, e + t.Plane.ht_evals))
    (0, 0, 0) (Plane.hook_stats plane)

let trace_run kind ~seed ~seconds =
  let env = prepare kind ~seed in
  warm env;
  let d0 = acc () and d0t = acc () and d1 = acc () and d2 = acc () in
  let dec = ref 0 and hits = ref 0 and evals = ref 0 in
  let bytes = ref 0 and records = ref 0 and dropped = ref 0 in
  let pubs = ref 0 in
  for_seconds seconds (fun () ->
      (* depth 0 untraced, then with the publish actions timed *)
      let d, h, e = hook_totals env.plane in
      let js0 = J.stats (Plane.journal env.plane) in
      ignore (run_pass env d0);
      let d', h', e' = hook_totals env.plane in
      dec := !dec + d' - d;
      hits := !hits + h' - h;
      evals := !evals + e' - e;
      let js = J.stats (Plane.journal env.plane) in
      bytes := !bytes + js.J.s_bytes - js0.J.s_bytes;
      records := !records + js.J.s_records - js0.J.s_records;
      dropped := !dropped + js.J.s_dropped - js0.J.s_dropped;
      end_pass env;
      env.timed := true;
      let p0 = !(env.publishes) in
      ignore (run_pass env d0t);
      pubs := !pubs + !(env.publishes) - p0;
      env.timed := false;
      end_pass env;
      sim_pass env d1 ~journal:true;
      end_pass env;
      sim_pass env d2 ~journal:false;
      end_pass env);
  let fi = float_of_int in
  let per a = a.ns /. fi a.ops and words a = a.words /. fi a.ops in
  { attempted = d0.ops + d0t.ops; failed = d0.errors + d0t.errors;
    metrics =
      [ m "plane.run_ns" "ns" (per d0);
        m "plane.decide_ns" "ns" (per d2);
        m "plane.decide_words" "words" (words d2);
        m "plane.self_ns" "ns" (per d0 -. per d1);
        m "plane.hit_ratio" "fraction" (fi !hits /. fi !dec);
        m "plane.evals_per_op" "count" (fi !evals /. fi !dec);
        m "pfm.evals_per_op" "count" (fi !evals /. fi !dec);
        m "snapshot.publish_ns" "ns"
          (if !pubs = 0 then 0. else fi !(env.publish_ns) /. fi !pubs);
        m "snapshot.publishes" "count/pass" (fi !pubs /. fi d0t.passes);
        m "journal.append_ns" "ns" (per d1 -. per d2);
        m "journal.append_words" "words" (words d1 -. words d2);
        m "journal.bytes_per_record" "bytes" (fi !bytes /. fi !records);
        m "journal.dropped" "count/pass" (fi !dropped /. fi d0.passes);
        m "workload.generate_s" "s" env.generate_s;
        m "trace.overhead_pct" "%" (100. *. ((per d0t /. per d0) -. 1.)) ];
    notes =
      info env seed
      @ [ Printf.sprintf
            "depths per pass: Plane.run, decide_on + journal_decision, decide_on; %d passes"
            d0.passes;
          "pfm.insns_per_eval: unavailable on the plane — each worker evaluates \
           private program clones the public API does not expose";
          "decision_cache.*: the plane's per-worker caches are private; see plane.hit_ratio" ] }
