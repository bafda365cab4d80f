module Pfm = Protego_filter.Pfm
module Compile = Protego_filter.Pfm_compile
module Netfilter = Protego_net.Netfilter
module Packet = Protego_net.Packet
module Bindconf = Protego_policy.Bindconf
module Pppopts = Protego_policy.Pppopts
module Errno = Protego_base.Errno
module Phase = Protego_base.Phase

module Policy_lint = Protego_analysis.Policy_lint
module Pfm_opt = Protego_filter.Pfm_opt
module Pfm_equiv = Protego_analysis.Pfm_equiv

type engine = [ `Pfm | `Ref ]
type lint_mode = [ `Warn | `Enforce ]

type hook_stats = {
  mutable evals : int;
  mutable allow : int;
  mutable deny : int;
  mutable reject : int;
  mutable invalidations : int;
  mutable insns : int;
}

type 'k cache = { mutable slot : ('k * Pfm.program) option }

(* Last source value observed by a decision, by physical identity.  When it
   changes without a /proc write having bumped the generation (direct field
   assignment, as the bench ablations and fuzz harnesses do), the observer
   bumps the generation itself, so decision-cache entries stamped under the
   old value can never be served. *)
type 'k watch = { mutable seen : 'k option }

(* One-entry front slot per hook, ahead of the {!Decision_cache} table.
   Where the table keys on the PFM context, the slot keys on the raw
   arguments by physical identity ('a is the hook's raw tuple) — sound
   because the argument values are immutable, and cheap enough that a
   repeated decision costs a handful of compares.  Validity is the same
   generation check the table uses, plus the cache epoch (a wholesale
   [clear]/[reset] must not leave a servable slot behind).  [s_x] carries
   the hook's integer argument (mounted_by, port/proto); hooks without
   one leave it 0.  [s_args] starts as a placeholder the epoch check
   never lets through, so a refill stores the arguments without boxing
   them in an option. *)
type 'a slot = {
  mutable s_epoch : int;  (* -1: never filled *)
  mutable s_gen : int;
  mutable s_sub : int;
  mutable s_ph : int;  (* subject's lifecycle-phase index at fill time *)
  mutable s_x : int;
  mutable s_args : 'a;
  mutable s_verdict : Pfm.verdict;
}

let fresh_slot args =
  { s_epoch = -1; s_gen = 0; s_sub = 0; s_ph = 0; s_x = 0; s_args = args;
    s_verdict = Pfm.Deny }

(* One latency histogram per engine that can serve a hook's decision. *)
type engine_keys = {
  ek_cache : Trace.key;
  ek_pfm : Trace.key;
  ek_ref : Trace.key;
}

type t = {
  mutable engine : engine;
  mutable lint_mode : lint_mode;
  mutable record : bool;
      (** permissive record mode: would-be denials are granted, flagged
          via [last_recorded] so the hook layer can audit them *)
  mutable last_recorded : bool;
      (** the most recent decision was a would-deny flipped by record
          mode (false on every genuine allow/deny) *)
  mutable last_engine : string;
      (** what served the most recent decision: "cache", "pfm" or "ref" *)
  mount_cache : Policy_state.mount_rule list cache;
  umount_cache : Policy_state.mount_rule list cache;
  bind_cache : Bindconf.entry list cache;
  ppp_cache : Pppopts.t cache;
  nf_cache : (Netfilter.rule list * Netfilter.verdict) cache;
  mount_stats : hook_stats;
  umount_stats : hook_stats;
  bind_stats : hook_stats;
  nf_stats : hook_stats;
  ppp_stats : hook_stats;
  (* decision cache and its per-hook counters *)
  dcache : Decision_cache.t;
  ch_mount : Decision_cache.hook;
  ch_umount : Decision_cache.hook;
  ch_bind : Decision_cache.hook;
  ch_nf : Decision_cache.hook;
  ch_ppp : Decision_cache.hook;
  (* physical-identity watches backing the generation counters *)
  mounts_watch : Policy_state.mount_rule list watch;
  binds_watch : Bindconf.entry list watch;
  ppp_watch : Pppopts.t watch;
  nf_watch : (Netfilter.rule list * Netfilter.verdict) watch;
  mutable nf_gen : int;
  (* per-hook front slots (physical-identity fast path) *)
  mount_slot :
    (string * string * string * Protego_kernel.Ktypes.mount_flag list) slot;
  umount_slot : string slot;
  bind_slot : string slot;
  ppp_slot : (string * Protego_net.Ppp.option_) slot;
  nf_slot : (Packet.t * Packet.origin) slot;
  (* scratch generation vectors, one per hook, reused on every decision so
     the hit path allocates nothing but the PFM context *)
  g_mount : int array;
  g_umount : int array;
  g_bind : int array;
  g_ppp : int array;
  g_nf : int array;
  (* decision tracing: per-(hook, engine) latency histograms, the span
     ring, and the span id of the most recent decision (for audit) *)
  trace : Trace.t;
  mutable traced : bool;
      (* mirror of [Trace.armed trace] (kept current via [Trace.on_arm]):
         the decision prologue reads it from this record instead of
         chasing into the tracer *)
  tk_mount : engine_keys;
  tk_umount : engine_keys;
  tk_bind : engine_keys;
  tk_nf : engine_keys;
  tk_ppp : engine_keys;
  mutable last_span : int;
      (* span id of the last decision, 0 when none: kept unboxed so the
         untraced hot path clears it with a plain store, not caml_modify *)
  (* profile-guided recompilation: per hook the (original, optimized)
     pair currently installed, a human-readable status, the running
     count of gate rejections, and pending log lines for dmesg/audit *)
  opt_installed : (string, Pfm.program * Pfm.program) Hashtbl.t;
  opt_status : (string, string) Hashtbl.t;
  mutable opt_rejects : int;
  mutable opt_log : string list; (* newest first *)
}

let fresh_stats () =
  { evals = 0; allow = 0; deny = 0; reject = 0; invalidations = 0; insns = 0 }

let engine_keys tr hook =
  { ek_cache = Trace.register tr ~hook ~engine:"cache";
    ek_pfm = Trace.register tr ~hook ~engine:"pfm";
    ek_ref = Trace.register tr ~hook ~engine:"ref" }

let create () =
  let dcache = Decision_cache.create () in
  let tr = Trace.create () in
  let t =
    { engine = `Pfm;
    lint_mode = `Warn;
    record = false;
    last_recorded = false;
    last_engine = "pfm";
    mount_cache = { slot = None };
    umount_cache = { slot = None };
    bind_cache = { slot = None };
    ppp_cache = { slot = None };
    nf_cache = { slot = None };
    mount_stats = fresh_stats ();
    umount_stats = fresh_stats ();
    bind_stats = fresh_stats ();
    nf_stats = fresh_stats ();
    ppp_stats = fresh_stats ();
    dcache;
    ch_mount = Decision_cache.register dcache "mount";
    ch_umount = Decision_cache.register dcache "umount";
    ch_bind = Decision_cache.register dcache "bind";
    ch_nf = Decision_cache.register dcache "nf_output";
    ch_ppp = Decision_cache.register dcache "ppp_ioctl";
    mounts_watch = { seen = None };
    binds_watch = { seen = None };
    ppp_watch = { seen = None };
    nf_watch = { seen = None };
    nf_gen = 0;
    mount_slot = fresh_slot ("", "", "", []);
    umount_slot = fresh_slot "";
    bind_slot = fresh_slot "";
    ppp_slot = fresh_slot ("", Protego_net.Ppp.Accomp);
    nf_slot =
      fresh_slot
        ( Packet.echo_request ~src:Protego_net.Ipaddr.any
            ~dst:Protego_net.Ipaddr.any ~seq:0 (),
          Packet.Kernel_stack );
    g_mount = [| 0 |];
    g_umount = [| 0 |];
    g_bind = [| 0 |];
    g_ppp = [| 0 |];
    g_nf = [| 0 |];
    trace = tr;
    traced = false;
    tk_mount = engine_keys tr "mount";
    tk_umount = engine_keys tr "umount";
    tk_bind = engine_keys tr "bind";
    tk_nf = engine_keys tr "nf_output";
    tk_ppp = engine_keys tr "ppp_ioctl";
      last_span = 0;
      opt_installed = Hashtbl.create 8;
      opt_status = Hashtbl.create 8;
      opt_rejects = 0;
      opt_log = [] }
  in
  (* Clearing last_span here (not per decision) keeps the unarmed hot
     path store-free: while armed every decision sets it in [conclude],
     while unarmed it stays 0. *)
  Trace.on_arm tr (fun armed ->
      t.traced <- armed;
      t.last_span <- 0);
  t

let engine t = t.engine
let set_engine t e = t.engine <- e
let engine_name t = match t.engine with `Pfm -> "pfm" | `Ref -> "ref"
let decision_engine_name t = t.last_engine
let lint_mode t = t.lint_mode
let set_lint_mode t m = t.lint_mode <- m

let record_mode t = t.record
let set_record t on = t.record <- on; t.last_recorded <- false
let last_recorded t = t.last_recorded

let lint_mode_name t =
  match t.lint_mode with `Warn -> "warn" | `Enforce -> "enforce"

let cache t = t.dcache
let trace t = t.trace
let last_span t = if t.last_span = 0 then None else Some t.last_span

let hooks t =
  [ ("mount", t.mount_stats); ("umount", t.umount_stats);
    ("bind", t.bind_stats); ("nf_output", t.nf_stats);
    ("ppp_ioctl", t.ppp_stats) ]

let stats = hooks

let reset_stats t =
  List.iter
    (fun (_, s) ->
      s.evals <- 0; s.allow <- 0; s.deny <- 0; s.reject <- 0;
      s.invalidations <- 0; s.insns <- 0)
    (hooks t)

let cached_program t name =
  let slot c = Option.map snd c.slot in
  match name with
  | "mount" -> slot t.mount_cache
  | "umount" -> slot t.umount_cache
  | "bind" -> slot t.bind_cache
  | "nf_output" -> slot t.nf_cache
  | "ppp_ioctl" -> slot t.ppp_cache
  | _ -> None

(* --- profile-guided recompilation --------------------------------------- *)

let log_opt t line = t.opt_log <- line :: t.opt_log

let drain_opt_log t =
  let l = List.rev t.opt_log in
  t.opt_log <- [];
  l

let opt_rejects t = t.opt_rejects

(* Gate and install one hook's optimized program.  The cache slot keeps
   its key, so a policy reload still recompiles from source (after which
   the installed optimization reads as stale in {!render}).  Soundness
   rests entirely on the gate: {!Pfm.verify} must accept AND
   {!Pfm_equiv.prove} must return [Equal].  A counterexample or an
   [Unknown] keeps the original program running and leaves an audit line
   — "trust me" never installs. *)
let optimize_slot t name (c : _ cache) =
  match c.slot with
  | None -> (name, "skipped: no compiled program")
  | Some (key, p) ->
      let already =
        match Hashtbl.find_opt t.opt_installed name with
        | Some (_, q) -> q == p
        | None -> false
      in
      if already then (name, "unchanged: optimization already installed")
      else begin
        match Pfm_opt.optimize p with
        | None -> (name, "unchanged: no profitable rewrite")
        | Some (q, rep) -> (
            let reject reason =
              t.opt_rejects <- t.opt_rejects + 1;
              Hashtbl.replace t.opt_status name ("rejected: " ^ reason);
              log_opt t (Printf.sprintf "opt %s rejected: %s" name reason);
              (name, "rejected: " ^ reason)
            in
            match Pfm.verify q with
            | Error e -> reject ("verify: " ^ Pfm.verify_error_to_string e)
            | Ok () -> (
                match Pfm_equiv.prove p q with
                | Pfm_equiv.Equal ->
                    c.slot <- Some (key, q);
                    Hashtbl.replace t.opt_installed name (p, q);
                    let d = Pfm_opt.report_to_string rep in
                    Hashtbl.replace t.opt_status name ("active: " ^ d);
                    log_opt t (Printf.sprintf "opt %s installed: %s" name d);
                    (name, "installed: " ^ d)
                | Pfm_equiv.Not_equal _ as r ->
                    reject ("refuted: " ^ Pfm_equiv.result_to_string r)
                | Pfm_equiv.Unknown m -> reject ("unproven: " ^ m)))
      end

let optimize t =
  [ optimize_slot t "mount" t.mount_cache;
    optimize_slot t "umount" t.umount_cache;
    optimize_slot t "bind" t.bind_cache;
    optimize_slot t "nf_output" t.nf_cache;
    optimize_slot t "ppp_ioctl" t.ppp_cache ]

let deoptimize_slot t name (c : _ cache) =
  match Hashtbl.find_opt t.opt_installed name with
  | None -> ()
  | Some (orig, q) ->
      (match c.slot with
       | Some (key, cur) when cur == q -> c.slot <- Some (key, orig)
       | _ -> () (* policy changed since: slot already holds fresh code *));
      Hashtbl.remove t.opt_installed name;
      Hashtbl.remove t.opt_status name;
      log_opt t (Printf.sprintf "opt %s reverted" name)

let deoptimize t =
  deoptimize_slot t "mount" t.mount_cache;
  deoptimize_slot t "umount" t.umount_cache;
  deoptimize_slot t "bind" t.bind_cache;
  deoptimize_slot t "nf_output" t.nf_cache;
  deoptimize_slot t "ppp_ioctl" t.ppp_cache

(* The status {!render} shows: "active" only while the optimized program
   is still the one the slot serves; a reload that recompiled from
   source demotes it to stale. *)
let opt_status_line t name (c : _ cache) =
  match Hashtbl.find_opt t.opt_status name with
  | None -> "none"
  | Some s -> (
      match Hashtbl.find_opt t.opt_installed name, c.slot with
      | Some (_, q), Some (_, cur) when cur == q -> s
      | Some _, _ -> "stale (policy changed)"
      | None, _ -> s)

let opt_statuses t =
  [ ("mount", opt_status_line t "mount" t.mount_cache);
    ("umount", opt_status_line t "umount" t.umount_cache);
    ("bind", opt_status_line t "bind" t.bind_cache);
    ("nf_output", opt_status_line t "nf_output" t.nf_cache);
    ("ppp_ioctl", opt_status_line t "ppp_ioctl" t.ppp_cache) ]

(* --- generation vectors ------------------------------------------------- *)

(* Refresh one watched Policy_state source and return the hook's current
   generation vector (in the hook's scratch array). *)
let source_gens watch st source ~key ~scratch =
  (match watch.seen with
   | Some k when k == key -> ()
   | Some _ ->
       Policy_state.bump_generation st source;
       watch.seen <- Some key
   | None -> watch.seen <- Some key);
  scratch.(0) <- Policy_state.generation st source;
  scratch

let mount_gens t (st : Policy_state.t) =
  source_gens t.mounts_watch st Policy_state.Mounts ~key:st.Policy_state.mounts
    ~scratch:t.g_mount

let umount_gens t (st : Policy_state.t) =
  source_gens t.mounts_watch st Policy_state.Mounts ~key:st.Policy_state.mounts
    ~scratch:t.g_umount

let bind_gens t (st : Policy_state.t) =
  source_gens t.binds_watch st Policy_state.Binds ~key:st.Policy_state.binds
    ~scratch:t.g_bind

let ppp_gens t (st : Policy_state.t) =
  source_gens t.ppp_watch st Policy_state.Ppp ~key:st.Policy_state.ppp
    ~scratch:t.g_ppp

(* The netfilter chain lives on the machine, not in Policy_state; its
   generation counter is dispatcher-local. *)
let nf_gens t ~rules ~policy =
  (match t.nf_watch.seen with
   | Some (r, p) when r == rules && p = policy -> ()
   | Some _ ->
       t.nf_gen <- t.nf_gen + 1;
       t.nf_watch.seen <- Some (rules, policy)
   | None -> t.nf_watch.seen <- Some (rules, policy));
  t.g_nf.(0) <- t.nf_gen;
  t.g_nf

(* --- cache + evaluation plumbing --------------------------------------- *)

let fetch cache st ~same ~key ~compile =
  match cache.slot with
  | Some (k, p) when same k key -> p
  | prev ->
      (match prev with
       | Some _ -> st.invalidations <- st.invalidations + 1
       | None -> ());
      let p = compile key in
      cache.slot <- Some (key, p);
      p

let run st (p : Pfm.program) ctx =
  let before = p.Pfm.retired in
  let v = Pfm.eval p ctx in
  st.insns <- st.insns + (p.Pfm.retired - before);
  v

let tally st (v : Pfm.verdict) =
  st.evals <- st.evals + 1;
  (match v with
   | Pfm.Allow -> st.allow <- st.allow + 1
   | Pfm.Deny -> st.deny <- st.deny + 1
   | Pfm.Reject -> st.reject <- st.reject + 1);
  v

let of_bool b = if b then Pfm.Allow else Pfm.Deny

let deny_errno e (v : Pfm.verdict) =
  match v with Pfm.Allow -> None | Pfm.Deny | Pfm.Reject -> Some e

(* Close out a traced decision: the serving engine's histogram always sees
   the latency; a span is recorded only when spans are on ([stages] is
   oldest-first by then).  Callers only reach this while {!Trace.armed} —
   the untraced path skips it entirely ([last_span] was zeroed when the
   tracer disarmed). *)
let conclude t ek ~t0 ~stages ~verdict ~errno ~gen =
  let tr = t.trace in
  let fin = Trace.now tr in
  let k =
    match t.last_engine with
    | "cache" -> ek.ek_cache
    | "ref" -> ek.ek_ref
    | _ -> ek.ek_pfm
  in
  Trace.observe k ~ns:(fin - t0);
  t.last_span <-
    (match
       Trace.record_span tr ~hook:k.Trace.k_hook ~engine:k.Trace.k_engine
         ~verdict ~errno ~gen ~epoch:(Decision_cache.epoch t.dcache) ~start:t0
         ~finish:fin ~stages
     with
     | Some id -> id
     | None -> 0)

(* Refill a hook's front slot after a decision was served off the slow path
   (table hit or engine run).  Skipped while the cache is disabled, so a
   bypassed decision can never be replayed after re-enabling without the
   table having seen it. *)
let refill t (s : _ slot) ~gen ~sub ~ph ~x ~args ~verdict =
  if Decision_cache.enabled t.dcache then begin
    s.s_epoch <- Decision_cache.epoch t.dcache;
    s.s_gen <- gen;
    s.s_sub <- sub;
    s.s_ph <- ph;
    s.s_x <- x;
    s.s_args <- args;
    s.s_verdict <- verdict
  end

(* --- hook decisions ---------------------------------------------------- *)

let filter_rule (r : Policy_state.mount_rule) : Compile.mount_rule =
  { Compile.fm_source = r.Policy_state.mr_source;
    fm_target = r.Policy_state.mr_target;
    fm_fstype = r.Policy_state.mr_fstype;
    fm_flags = r.Policy_state.mr_flags;
    fm_user_only = (r.Policy_state.mr_mode = `User);
    fm_phase = r.Policy_state.mr_phase }

(* Every task-scoped decision is keyed on the caller's lifecycle phase —
   in the front slot, the table key, and the PFM context alike — so a
   phase transition makes exactly the transitioning task's stale entries
   unreachable (they age out) while other tasks keep hitting.  Callers
   without task context (bench, fuzz) default to [Phase.initial], which
   is verdict-neutral for unphased policies. *)

(* Every decide_* funnels its engine verdict through one of these two
   epilogues.  Caches and front slots were already fed the TRUE verdict
   by the time we get here, so record mode never pollutes them: only
   the value handed back to the hook is flipped, and [last_recorded]
   tells the hook layer to audit the would-deny. *)
let record_result t v =
  t.last_recorded <- t.record && v <> Pfm.Allow;
  t.last_recorded || v = Pfm.Allow

let record_nf_result t v =
  t.last_recorded <- t.record && v <> Pfm.Allow;
  if t.last_recorded then Netfilter.Accept else Compile.netfilter_of_verdict v

let decide_mount t ?(subject = 0) ?(phase = Phase.initial) (st : Policy_state.t)
    ~source ~target ~fstype ~flags =
  let t0 = if t.traced then Trace.now t.trace else 0 in
  let gens = mount_gens t st in
  let s = t.mount_slot in
  let ph = Phase.index phase in
  if
    Decision_cache.enabled t.dcache
    && s.s_epoch = Decision_cache.epoch t.dcache
    && s.s_gen = Array.unsafe_get gens 0
    && s.s_sub = subject && s.s_ph = ph
    && (let sr, tg, fs, fl = s.s_args in
        sr == source && tg == target && fs == fstype && fl == flags)
  then begin
    Decision_cache.record_hit t.dcache t.ch_mount;
    t.last_engine <- "cache";
    let v = s.s_verdict in
    if t.traced then
      conclude t t.tk_mount ~t0
        ~stages:
          (if Trace.spans_enabled t.trace then [ ("slot", Trace.now t.trace - t0) ]
           else [])
        ~verdict:v ~errno:(deny_errno Errno.EPERM v)
        ~gen:(Array.unsafe_get gens 0);
    record_result t v
  end
  else begin
    let sp = t.traced && Trace.spans_enabled t.trace in
    let stages = if sp then [ ("slot", Trace.now t.trace - t0) ] else [] in
    let ctx = Compile.mount_ctx ~phase:ph ~source ~target ~fstype ~flags in
    let found = Decision_cache.find t.dcache t.ch_mount ~subject ~ctx ~gens in
    let stages = if sp then ("table", Trace.now t.trace - t0) :: stages else stages in
    let v, errno, stages =
      match found with
      | Some (v, e) ->
          t.last_engine <- "cache";
          (v, e, stages)
      | None ->
          let v =
            match t.engine with
            | `Ref ->
                of_bool
                  (Policy_state.mount_decision ~phase st ~source ~target ~fstype
                     ~flags)
            | `Pfm ->
                let p =
                  fetch t.mount_cache t.mount_stats ~same:( == )
                    ~key:st.Policy_state.mounts
                    ~compile:(fun rules ->
                      Compile.mount (List.map filter_rule rules))
                in
                run t.mount_stats p ctx
          in
          t.last_engine <- engine_name t;
          let v = tally t.mount_stats v in
          let e = deny_errno Errno.EPERM v in
          Decision_cache.add t.dcache t.ch_mount ~subject ~ctx ~gens ~verdict:v
            ~errno:e;
          (v, e,
           if sp then ("engine", Trace.now t.trace - t0) :: stages else stages)
    in
    refill t s ~gen:gens.(0) ~sub:subject ~ph ~x:0
      ~args:(source, target, fstype, flags) ~verdict:v;
    if t.traced then
      conclude t t.tk_mount ~t0 ~stages:(List.rev stages) ~verdict:v ~errno
        ~gen:gens.(0);
    record_result t v
  end

let decide_umount t ?(phase = Phase.initial) (st : Policy_state.t) ~target
    ~mounted_by ~ruid =
  let t0 = if t.traced then Trace.now t.trace else 0 in
  let gens = umount_gens t st in
  let s = t.umount_slot in
  let ph = Phase.index phase in
  if
    Decision_cache.enabled t.dcache
    && s.s_epoch = Decision_cache.epoch t.dcache
    && s.s_gen = Array.unsafe_get gens 0
    && s.s_sub = ruid && s.s_ph = ph && s.s_x = mounted_by
    && s.s_args == target
  then begin
    Decision_cache.record_hit t.dcache t.ch_umount;
    t.last_engine <- "cache";
    let v = s.s_verdict in
    if t.traced then
      conclude t t.tk_umount ~t0
        ~stages:
          (if Trace.spans_enabled t.trace then [ ("slot", Trace.now t.trace - t0) ]
           else [])
        ~verdict:v ~errno:(deny_errno Errno.EPERM v)
        ~gen:(Array.unsafe_get gens 0);
    record_result t v
  end
  else begin
    let sp = t.traced && Trace.spans_enabled t.trace in
    let stages = if sp then [ ("slot", Trace.now t.trace - t0) ] else [] in
    let ctx = Compile.umount_ctx ~phase:ph ~target ~mounted_by ~ruid in
    let found =
      Decision_cache.find t.dcache t.ch_umount ~subject:ruid ~ctx ~gens
    in
    let stages = if sp then ("table", Trace.now t.trace - t0) :: stages else stages in
    let v, errno, stages =
      match found with
      | Some (v, e) ->
          t.last_engine <- "cache";
          (v, e, stages)
      | None ->
          let v =
            match t.engine with
            | `Ref ->
                of_bool
                  (Policy_state.umount_decision ~phase st ~target ~mounted_by
                     ~ruid)
            | `Pfm ->
                let p =
                  fetch t.umount_cache t.umount_stats ~same:( == )
                    ~key:st.Policy_state.mounts
                    ~compile:(fun rules ->
                      Compile.umount (List.map filter_rule rules))
                in
                run t.umount_stats p ctx
          in
          t.last_engine <- engine_name t;
          let v = tally t.umount_stats v in
          let e = deny_errno Errno.EPERM v in
          Decision_cache.add t.dcache t.ch_umount ~subject:ruid ~ctx ~gens
            ~verdict:v ~errno:e;
          (v, e,
           if sp then ("engine", Trace.now t.trace - t0) :: stages else stages)
    in
    refill t s ~gen:gens.(0) ~sub:ruid ~ph ~x:mounted_by ~args:target ~verdict:v;
    if t.traced then
      conclude t t.tk_umount ~t0 ~stages:(List.rev stages) ~verdict:v ~errno
        ~gen:gens.(0);
    record_result t v
  end

let decide_bind t ?(phase = Phase.initial) (st : Policy_state.t) ~port ~proto
    ~exe ~uid =
  let t0 = if t.traced then Trace.now t.trace else 0 in
  let gens = bind_gens t st in
  let s = t.bind_slot in
  let ph = Phase.index phase in
  let x = (port * 2) + (match proto with Bindconf.Tcp -> 0 | Bindconf.Udp -> 1) in
  if
    Decision_cache.enabled t.dcache
    && s.s_epoch = Decision_cache.epoch t.dcache
    && s.s_gen = Array.unsafe_get gens 0
    && s.s_sub = uid && s.s_ph = ph && s.s_x = x
    && s.s_args == exe
  then begin
    Decision_cache.record_hit t.dcache t.ch_bind;
    t.last_engine <- "cache";
    let v = s.s_verdict in
    if t.traced then
      conclude t t.tk_bind ~t0
        ~stages:
          (if Trace.spans_enabled t.trace then [ ("slot", Trace.now t.trace - t0) ]
           else [])
        ~verdict:v ~errno:(deny_errno Errno.EACCES v)
        ~gen:(Array.unsafe_get gens 0);
    record_result t v
  end
  else begin
    let sp = t.traced && Trace.spans_enabled t.trace in
    let stages = if sp then [ ("slot", Trace.now t.trace - t0) ] else [] in
    let ctx = Compile.bind_ctx ~phase:ph ~port ~proto ~exe ~uid in
    let found = Decision_cache.find t.dcache t.ch_bind ~subject:uid ~ctx ~gens in
    let stages = if sp then ("table", Trace.now t.trace - t0) :: stages else stages in
    let v, errno, stages =
      match found with
      | Some (v, e) ->
          t.last_engine <- "cache";
          (v, e, stages)
      | None ->
          let v =
            match t.engine with
            | `Ref ->
                of_bool (Policy_state.bind_allowed ~phase st ~port ~proto ~exe ~uid)
            | `Pfm ->
                let p =
                  fetch t.bind_cache t.bind_stats ~same:( == )
                    ~key:st.Policy_state.binds ~compile:(fun b -> Compile.bind b)
                in
                run t.bind_stats p ctx
          in
          t.last_engine <- engine_name t;
          let v = tally t.bind_stats v in
          let e = deny_errno Errno.EACCES v in
          Decision_cache.add t.dcache t.ch_bind ~subject:uid ~ctx ~gens
            ~verdict:v ~errno:e;
          (v, e,
           if sp then ("engine", Trace.now t.trace - t0) :: stages else stages)
    in
    refill t s ~gen:gens.(0) ~sub:uid ~ph ~x ~args:exe ~verdict:v;
    if t.traced then
      conclude t t.tk_bind ~t0 ~stages:(List.rev stages) ~verdict:v ~errno
        ~gen:gens.(0);
    record_result t v
  end

let decide_ppp_ioctl t ?(subject = 0) ?(phase = Phase.initial)
    (st : Policy_state.t) ~device ~opt =
  let t0 = if t.traced then Trace.now t.trace else 0 in
  let gens = ppp_gens t st in
  let s = t.ppp_slot in
  let ph = Phase.index phase in
  if
    Decision_cache.enabled t.dcache
    && s.s_epoch = Decision_cache.epoch t.dcache
    && s.s_gen = Array.unsafe_get gens 0
    && s.s_sub = subject && s.s_ph = ph
    && (let dv, op = s.s_args in
        dv == device && op == opt)
  then begin
    Decision_cache.record_hit t.dcache t.ch_ppp;
    t.last_engine <- "cache";
    let v = s.s_verdict in
    if t.traced then
      conclude t t.tk_ppp ~t0
        ~stages:
          (if Trace.spans_enabled t.trace then [ ("slot", Trace.now t.trace - t0) ]
           else [])
        ~verdict:v ~errno:(deny_errno Errno.EPERM v)
        ~gen:(Array.unsafe_get gens 0);
    record_result t v
  end
  else begin
    let sp = t.traced && Trace.spans_enabled t.trace in
    let stages = if sp then [ ("slot", Trace.now t.trace - t0) ] else [] in
    let ctx = Compile.ppp_ctx ~phase:ph ~device ~opt in
    let found = Decision_cache.find t.dcache t.ch_ppp ~subject ~ctx ~gens in
    let stages = if sp then ("table", Trace.now t.trace - t0) :: stages else stages in
    let v, errno, stages =
      match found with
      | Some (v, e) ->
          t.last_engine <- "cache";
          (v, e, stages)
      | None ->
          let v =
            match t.engine with
            | `Ref ->
                of_bool (Policy_state.ppp_ioctl_decision ~phase st ~device ~opt)
            | `Pfm ->
                let p =
                  fetch t.ppp_cache t.ppp_stats ~same:( == )
                    ~key:st.Policy_state.ppp
                    ~compile:(fun pol -> Compile.ppp_ioctl pol)
                in
                run t.ppp_stats p ctx
          in
          t.last_engine <- engine_name t;
          let v = tally t.ppp_stats v in
          let e = deny_errno Errno.EPERM v in
          Decision_cache.add t.dcache t.ch_ppp ~subject ~ctx ~gens ~verdict:v
            ~errno:e;
          (v, e,
           if sp then ("engine", Trace.now t.trace - t0) :: stages else stages)
    in
    refill t s ~gen:gens.(0) ~sub:subject ~ph ~x:0 ~args:(device, opt) ~verdict:v;
    if t.traced then
      conclude t t.tk_ppp ~t0 ~stages:(List.rev stages) ~verdict:v ~errno
        ~gen:gens.(0);
    record_result t v
  end

let decide_nf_output t nf pkt ~origin =
  let t0 = if t.traced then Trace.now t.trace else 0 in
  let rules = Netfilter.rules nf Netfilter.Output in
  let policy = Netfilter.policy nf Netfilter.Output in
  let gens = nf_gens t ~rules ~policy in
  let s = t.nf_slot in
  if
    Decision_cache.enabled t.dcache
    && s.s_epoch = Decision_cache.epoch t.dcache
    && s.s_gen = Array.unsafe_get gens 0
    && (let p0, o0 = s.s_args in
        p0 == pkt && o0 = origin)
  then begin
    Decision_cache.record_hit t.dcache t.ch_nf;
    t.last_engine <- "cache";
    let v = s.s_verdict in
    if t.traced then
      conclude t t.tk_nf ~t0
        ~stages:
          (if Trace.spans_enabled t.trace then [ ("slot", Trace.now t.trace - t0) ]
           else [])
        ~verdict:v ~errno:None ~gen:(Array.unsafe_get gens 0);
    record_nf_result t v
  end
  else begin
    let sp = t.traced && Trace.spans_enabled t.trace in
    let stages = if sp then [ ("slot", Trace.now t.trace - t0) ] else [] in
    (* packet_ctx is the canonical integer encoding of everything the chain
       can match on: the memo key and the engine input alike. *)
    let ctx = Compile.packet_ctx pkt ~origin in
    let found = Decision_cache.find t.dcache t.ch_nf ~subject:0 ~ctx ~gens in
    let stages = if sp then ("table", Trace.now t.trace - t0) :: stages else stages in
    let v, stages =
      match found with
      | Some (v, _) ->
          t.last_engine <- "cache";
          (v, stages)
      | None ->
          let v =
            match t.engine with
            | `Ref ->
                Compile.verdict_of_netfilter
                  (Netfilter.walk nf Netfilter.Output pkt ~origin)
            | `Pfm ->
                let p =
                  fetch t.nf_cache t.nf_stats
                    ~same:(fun (r1, p1) (r2, p2) -> r1 == r2 && p1 = p2)
                    ~key:(rules, policy)
                    ~compile:(fun (rules, policy) ->
                      Compile.netfilter ~rules ~policy)
                in
                run t.nf_stats p ctx
          in
          t.last_engine <- engine_name t;
          let v = tally t.nf_stats v in
          Decision_cache.add t.dcache t.ch_nf ~subject:0 ~ctx ~gens ~verdict:v
            ~errno:None;
          (v, if sp then ("engine", Trace.now t.trace - t0) :: stages else stages)
    in
    refill t s ~gen:gens.(0) ~sub:0 ~ph:0 ~x:0 ~args:(pkt, origin) ~verdict:v;
    if t.traced then
      conclude t t.tk_nf ~t0 ~stages:(List.rev stages) ~verdict:v ~errno:None
        ~gen:gens.(0);
    record_nf_result t v
  end

(* --- load-time policy lint --------------------------------------------- *)

let lint_input ?(chains = []) (st : Policy_state.t) =
  {
    Policy_lint.mounts = List.map filter_rule st.Policy_state.mounts;
    binds = st.Policy_state.binds;
    delegation = st.Policy_state.delegation;
    accounts =
      {
        Policy_lint.user_names =
          List.map
            (fun (u : Policy_state.account_user) ->
              (u.Policy_state.au_name, u.Policy_state.au_uid))
            st.Policy_state.users;
        group_names =
          List.map
            (fun (g : Policy_state.account_group) -> g.Policy_state.ag_name)
            st.Policy_state.groups;
      };
    ppp = Some st.Policy_state.ppp;
    chains;
  }

let lint_report ?chains st = Policy_lint.lint (lint_input ?chains st)

(* Findings that bear on installing [sources] — each source's own plus
   the cross-source checks.  A delegation typo must not veto a bind-map
   install, so the gate never looks wider than the write at hand. *)
let relevant findings ~sources =
  List.filter
    (fun (f : Policy_lint.finding) ->
      List.mem f.Policy_lint.source sources || f.Policy_lint.source = "cross")
    findings

(* The load-time gate: lint the candidate state a /proc policy write
   would install.  [`Refused fs] (enforce mode, error-severity findings
   among the written sources) means the caller must not apply the write;
   [`Warned fs] means apply but tag the audit trail. *)
let check_policy_load t ?chains st ~sources =
  let findings = relevant (lint_report ?chains st) ~sources in
  if t.lint_mode = `Enforce && Policy_lint.has_errors findings then
    `Refused findings
  else if findings <> [] then `Warned findings
  else `Clean

(* --- /proc/protego/filter_stats ---------------------------------------- *)

let render t =
  let b = Buffer.create 256 in
  Buffer.add_string b "engine ";
  Buffer.add_string b (engine_name t);
  Buffer.add_char b '\n';
  List.iter
    (fun (name, s) ->
      Buffer.add_string b
        (Printf.sprintf
           "hook %s evals %d allow %d deny %d reject %d invalidations %d insns %d\n"
           name s.evals s.allow s.deny s.reject s.invalidations s.insns))
    (hooks t);
  List.iter
    (fun (name, status) ->
      Buffer.add_string b (Printf.sprintf "opt %s %s\n" name status))
    (opt_statuses t);
  Buffer.add_string b (Printf.sprintf "opt_rejects %d\n" t.opt_rejects);
  Buffer.contents b

let handle_write t contents =
  match String.trim contents with
  | "reset" -> reset_stats t; Ok ()
  | "engine pfm" -> t.engine <- `Pfm; Ok ()
  | "engine ref" -> t.engine <- `Ref; Ok ()
  | "optimize" ->
      (* Gate rejections are not write errors: the original program
         keeps serving and the rejection is audited via the opt log. *)
      ignore (optimize t : (string * string) list);
      Ok ()
  | "deoptimize" -> deoptimize t; Ok ()
  | other -> Error ("filter_stats: unknown command: " ^ other)

(* --- /proc/protego/cache_stats ------------------------------------------ *)

let render_cache t = Decision_cache.render t.dcache
let handle_cache_write t contents = Decision_cache.handle_write t.dcache contents

(* --- /proc/protego/trace and /proc/protego/latency ---------------------- *)

let render_trace t = Trace.render_trace t.trace
let handle_trace_write t contents = Trace.handle_trace_write t.trace contents
let render_latency t = Trace.render_latency t.trace

let handle_latency_write t contents =
  Trace.handle_latency_write t.trace contents
