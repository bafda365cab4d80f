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

type lint_mode = [ `Warn | `Enforce ]

type hook_stats = {
  mutable decisions : int;
  mutable granted : int;
  mutable evals : int;
  mutable allow : int;
  mutable deny : int;
  mutable reject : int;
  mutable invalidations : int;
  mutable insns : int;
}

(* One-entry front slot per hook, ahead of the {!Decision_cache} table.
   Where the table keys on the PFM context, the slot keys on the raw
   arguments by physical identity ('a is the caller's argument value) —
   sound because the argument values are immutable, and cheap enough
   that a repeated decision costs a handful of compares.  Validity is
   the same generation check the table uses, plus the cache epoch (a
   wholesale [clear]/[reset] must not leave a servable slot behind).
   [s_x] carries an integer argument the identity test does not cover
   (mounted_by, port/proto); callers without one leave it 0.  [s_args]
   starts as a placeholder the epoch check never lets through, so a
   refill stores the arguments without boxing them in an option. *)
type 'a slot = {
  mutable s_epoch : int;  (* -1: never filled *)
  mutable s_gen : int;
  mutable s_sub : int;
  mutable s_ph : int;  (* subject's lifecycle-phase index at fill time *)
  mutable s_x : int;
  mutable s_args : 'a;
  mutable s_verdict : Pfm.verdict;
}

type rung = Slot | Table | Engine

(* One hook's decision ladder: its counters, its memo-table hook, the
   errno a denial carries, its front slot and its generation scratch
   (reused on every decision, so the hit path allocates nothing but the
   PFM context).  The program to run comes from the caller. *)
type 'a hook = {
  l_stats : hook_stats;
  l_cache : Decision_cache.t;
  l_ch : Decision_cache.hook;
  l_errno : Errno.t option;  (* None for nf_output *)
  l_slot : 'a slot;
  l_gens : int array;
  l_trace : Trace.t;
  mutable l_table_at : int;  (* end of the table stage, while spans are on *)
  mutable l_served : rung;  (* what served the last decision *)
}

(* A dispatcher hook: the ladder plus its compiled program, cached
   against the generation of the policy source it was compiled from
   ('k holds the source: the policy state, or the netfilter table), and
   its latency series. *)
type ('k, 'a) filtered = {
  h_name : string;
  h_lad : 'a hook;
  h_compile : 'k -> Pfm.program;
  mutable h_prog : (int * Pfm.program) option;
  h_cache_key : Trace.key;  (* latency of slot and memo hits *)
  h_pfm_key : Trace.key;  (* latency of engine runs *)
}

type any_hook = Hook : (_, _) filtered -> any_hook

type t = {
  mutable lint_mode : lint_mode;
  mutable record : bool;
      (** permissive record mode: would-be denials are granted, flagged
          via [last_recorded] so the hook layer can audit them *)
  mutable last_recorded : bool;
      (** the most recent decision was a would-deny flipped by record
          mode (false on every genuine allow/deny) *)
  mutable last_engine : string;
      (** what served the most recent decision: "cache" or "pfm" *)
  mount :
    (Policy_state.t,
     string * string * string * Protego_kernel.Ktypes.mount_flag list)
    filtered;
  umount : (Policy_state.t, string) filtered;
  bind : (Policy_state.t, string) filtered;
  nf : (Netfilter.t, Packet.t * Packet.origin) filtered;
  ppp : (Policy_state.t, string * Protego_net.Ppp.option_) filtered;
  all : any_hook list;  (* {!stats} order *)
  dcache : Decision_cache.t;
  (* decision tracing: the span ring and the span id of the most recent
     decision (for audit) *)
  trace : Trace.t;
  mutable traced : bool;
      (* mirror of [Trace.armed trace] (kept current via [Trace.on_arm]):
         the decision prologue reads it from this record instead of
         chasing into the tracer *)
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

let filter_rule (r : Policy_state.mount_rule) : Compile.mount_rule =
  { Compile.fm_source = r.Policy_state.mr_source;
    fm_target = r.Policy_state.mr_target;
    fm_fstype = r.Policy_state.mr_fstype;
    fm_flags = r.Policy_state.mr_flags;
    fm_user_only = (r.Policy_state.mr_mode = `User);
    fm_phase = r.Policy_state.mr_phase }

(* --- the decision ladder ------------------------------------------------ *)

(* Front slot -> memo table -> engine, with the counters and the slot
   refill: the one walk every decision takes, whoever the caller.  The
   caller keeps what is specific to it — the front-slot identity test,
   the PFM context, the program, and (the dispatcher) spans and the
   record-mode flip.

   Every task-scoped decision is keyed on the caller's lifecycle phase —
   in the front slot, the table key, and the PFM context alike — so a
   phase transition makes exactly the transitioning task's stale entries
   unreachable (they age out) while other tasks keep hitting. *)

let hook dcache tr name ~errno ~args =
  { l_stats =
      { decisions = 0; granted = 0; evals = 0; allow = 0; deny = 0;
        reject = 0; invalidations = 0; insns = 0 };
    l_cache = dcache; l_ch = Decision_cache.register dcache name;
    l_errno = errno;
    l_slot =
      { s_epoch = -1; s_gen = 0; s_sub = 0; s_ph = 0; s_x = 0; s_args = args;
        s_verdict = Pfm.Deny };
    l_gens = [| 0 |]; l_trace = tr; l_table_at = 0; l_served = Slot }

let counters l = l.l_stats
let cache_hook l = l.l_ch

let deny_errno l (v : Pfm.verdict) =
  match v with Pfm.Allow -> None | Pfm.Deny | Pfm.Reject -> l.l_errno

let tally st (v : Pfm.verdict) =
  st.decisions <- st.decisions + 1;
  match v with
  | Pfm.Allow -> st.granted <- st.granted + 1
  | Pfm.Deny | Pfm.Reject -> ()

let slot_live l ~gen ~sub ~ph ~x =
  Array.unsafe_set l.l_gens 0 gen;
  let s = l.l_slot in
  Decision_cache.enabled l.l_cache
  && s.s_epoch = Decision_cache.epoch l.l_cache
  && s.s_gen = gen && s.s_sub = sub && s.s_ph = ph && s.s_x = x

let[@inline] slot_args l = l.l_slot.s_args

(* A front-slot hit: the caller has matched the arguments. *)
let slot_hit l =
  Decision_cache.record_hit l.l_cache l.l_ch;
  l.l_served <- Slot;
  let v = l.l_slot.s_verdict in
  tally l.l_stats v;
  v

(* Engine evaluations only: slot and memo hits never get here. *)
let eval l prog ctx =
  let st = l.l_stats in
  let before = prog.Pfm.retired in
  let v = Pfm.eval prog ctx in
  st.insns <- st.insns + (prog.Pfm.retired - before);
  st.evals <- st.evals + 1;
  (match v with
   | Pfm.Allow -> st.allow <- st.allow + 1
   | Pfm.Deny -> st.deny <- st.deny + 1
   | Pfm.Reject -> st.reject <- st.reject + 1);
  v

(* Past the front slot: memo table, then [prog] on a miss.  The slot is
   refilled from whichever served — except while the cache is disabled,
   so a bypassed decision can never be replayed after re-enabling
   without the table having seen it. *)
let serve l ~prog ~sub ~ph ~x ~args ~ctx =
  let gens = l.l_gens in
  let found = Decision_cache.find l.l_cache l.l_ch ~subject:sub ~ctx ~gens in
  if Trace.spans_enabled l.l_trace then l.l_table_at <- Trace.now l.l_trace;
  let v =
    match found with
    | Some (v, _) ->
        l.l_served <- Table;
        v
    | None ->
        let v = eval l prog ctx in
        Decision_cache.add l.l_cache l.l_ch ~subject:sub ~ctx ~gens ~verdict:v
          ~errno:(deny_errno l v);
        l.l_served <- Engine;
        v
  in
  if Decision_cache.enabled l.l_cache then begin
    let s = l.l_slot in
    s.s_epoch <- Decision_cache.epoch l.l_cache;
    s.s_gen <- gens.(0);
    s.s_sub <- sub;
    s.s_ph <- ph;
    s.s_x <- x;
    s.s_args <- args;
    s.s_verdict <- v
  end;
  tally l.l_stats v;
  v

(* --- dispatcher hooks --------------------------------------------------- *)

let make_hook dcache tr name ~errno ~compile ~args =
  { h_name = name; h_lad = hook dcache tr name ~errno ~args;
    h_compile = compile; h_prog = None;
    h_cache_key = Trace.register tr ~hook:name ~engine:"cache";
    h_pfm_key = Trace.register tr ~hook:name ~engine:"pfm" }

let create () =
  let dcache = Decision_cache.create () in
  let tr = Trace.create () in
  (* Registration order fixes the cache_stats and latency line order. *)
  let hook name = make_hook dcache tr name in
  let mount_rules st = List.map filter_rule st.Policy_state.mounts in
  let mount =
    hook "mount" ~errno:(Some Errno.EPERM) ~args:("", "", "", [])
      ~compile:(fun st -> Compile.mount (mount_rules st))
  in
  let umount =
    hook "umount" ~errno:(Some Errno.EPERM) ~args:""
      ~compile:(fun st -> Compile.umount (mount_rules st))
  in
  let bind =
    hook "bind" ~errno:(Some Errno.EACCES) ~args:""
      ~compile:(fun st -> Compile.bind st.Policy_state.binds)
  in
  let nf =
    hook "nf_output" ~errno:None
      ~args:
        ( Packet.echo_request ~src:Protego_net.Ipaddr.any
            ~dst:Protego_net.Ipaddr.any ~seq:0 (),
          Packet.Kernel_stack )
      ~compile:(fun nf ->
        Compile.netfilter
          ~rules:(Netfilter.rules nf Netfilter.Output)
          ~policy:(Netfilter.policy nf Netfilter.Output))
  in
  let ppp =
    hook "ppp_ioctl" ~errno:(Some Errno.EPERM)
      ~args:("", Protego_net.Ppp.Accomp)
      ~compile:(fun st -> Compile.ppp_ioctl st.Policy_state.ppp)
  in
  let t =
    { lint_mode = `Warn; record = false; last_recorded = false;
      last_engine = "pfm"; mount; umount; bind; nf; ppp;
      all = [ Hook mount; Hook umount; Hook bind; Hook nf; Hook ppp ];
      dcache;
      trace = tr;
      traced = false;
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

let stats t = List.map (fun (Hook h) -> (h.h_name, h.h_lad.l_stats)) t.all

let reset_stats t =
  List.iter
    (fun (_, s) ->
      s.decisions <- 0; s.granted <- 0; s.evals <- 0; s.allow <- 0;
      s.deny <- 0; s.reject <- 0; s.invalidations <- 0; s.insns <- 0)
    (stats t)

let cached_program t name =
  List.find_map
    (fun (Hook h) -> if h.h_name = name then Option.map snd h.h_prog else None)
    t.all

(* --- profile-guided recompilation --------------------------------------- *)

let log_opt t line = t.opt_log <- line :: t.opt_log

let drain_opt_log t =
  let l = List.rev t.opt_log in
  t.opt_log <- [];
  l

let opt_rejects t = t.opt_rejects

(* Gate and install one hook's optimized program.  The program cache
   keeps its generation, so a policy reload still recompiles from source
   (after which the installed optimization reads as stale in {!render}).
   Soundness rests entirely on the gate: {!Pfm.verify} must accept AND
   {!Pfm_equiv.prove} must return [Equal].  A counterexample or an
   [Unknown] keeps the original program running and leaves an audit line
   — "trust me" never installs. *)
let optimize_hook t h =
  let name = h.h_name in
  match h.h_prog with
  | None -> (name, "skipped: no compiled program")
  | Some (gen, p) ->
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
                    h.h_prog <- Some (gen, q);
                    Hashtbl.replace t.opt_installed name (p, q);
                    let d = Pfm_opt.report_to_string rep in
                    Hashtbl.replace t.opt_status name ("active: " ^ d);
                    log_opt t (Printf.sprintf "opt %s installed: %s" name d);
                    (name, "installed: " ^ d)
                | Pfm_equiv.Not_equal _ as r ->
                    reject ("refuted: " ^ Pfm_equiv.result_to_string r)
                | Pfm_equiv.Unknown m -> reject ("unproven: " ^ m)))
      end

let optimize t = List.map (fun (Hook h) -> optimize_hook t h) t.all

let deoptimize_hook t h =
  let name = h.h_name in
  match Hashtbl.find_opt t.opt_installed name with
  | None -> ()
  | Some (orig, q) ->
      (match h.h_prog with
       | Some (gen, cur) when cur == q -> h.h_prog <- Some (gen, orig)
       | _ -> () (* policy changed since: slot already holds fresh code *));
      Hashtbl.remove t.opt_installed name;
      Hashtbl.remove t.opt_status name;
      log_opt t (Printf.sprintf "opt %s reverted" name)

let deoptimize t = List.iter (fun (Hook h) -> deoptimize_hook t h) t.all

(* The status {!render} shows: "active" only while the optimized program
   is still the one the slot serves; a reload that recompiled from
   source demotes it to stale. *)
let opt_status_line t h =
  match Hashtbl.find_opt t.opt_status h.h_name with
  | None -> "none"
  | Some s -> (
      match Hashtbl.find_opt t.opt_installed h.h_name, h.h_prog with
      | Some (_, q), Some (_, cur) when cur == q -> s
      | Some _, _ -> "stale (policy changed)"
      | None, _ -> s)

let opt_statuses t =
  List.map (fun (Hook h) -> (h.h_name, opt_status_line t h)) t.all

(* --- hook decisions ---------------------------------------------------- *)

(* Every decide_* below keeps only what is specific to its hook — the
   front-slot identity test, the PFM context, the policy source the
   program compiles from — hands the rest to the ladder, and closes out
   with [finish].  Callers without task context (bench, fuzz) default to
   [Phase.initial], which is verdict-neutral for unphased policies. *)

let[@inline] start t = if t.traced then Trace.now t.trace else 0

(* The end of the slot stage: read only while spans are on, so an armed
   tracer without spans still reads the clock exactly twice. *)
let[@inline] slot_done t =
  if t.traced && Trace.spans_enabled t.trace then Trace.now t.trace else 0

let allowed (v : Pfm.verdict) =
  match v with Pfm.Allow -> true | Pfm.Deny | Pfm.Reject -> false

(* The hook's program for generation [gen] of [src]: compiled once per
   generation, so a reload (which bumps) recompiles on the next miss. *)
let fetch h ~gen src =
  match h.h_prog with
  | Some (g, p) when g = gen -> p
  | prev ->
      (match prev with
       | Some _ ->
           let st = h.h_lad.l_stats in
           st.invalidations <- st.invalidations + 1
       | None -> ());
      let p = h.h_compile src in
      h.h_prog <- Some (gen, p);
      p

(* Close out a decision the ladder served.  While traced, the serving
   series' histogram sees the latency and, with spans on, a span records
   the stages the decision went through ([ts] is the end of the slot
   stage, see {!slot_done}); the untraced path skips all of it
   ([last_span] was zeroed when the tracer disarmed).  Caches and front
   slots hold the TRUE verdict, so record mode never pollutes them: only
   the value handed back to the hook is flipped, and [last_recorded]
   tells the hook layer to audit the would-deny. *)
let finish t h ~t0 ~ts (v : Pfm.verdict) =
  let l = h.h_lad in
  let k = if l.l_served = Engine then h.h_pfm_key else h.h_cache_key in
  t.last_engine <- k.Trace.k_engine;
  if t.traced then begin
    let tr = t.trace in
    let fin = Trace.now tr in
    Trace.observe k ~ns:(fin - t0);
    let stages =
      match l.l_served with
      | _ when not (Trace.spans_enabled tr) -> []
      | Slot -> [ ("slot", fin - t0) ]
      | Table -> [ ("slot", ts - t0); ("table", l.l_table_at - t0) ]
      | Engine ->
          [ ("slot", ts - t0); ("table", l.l_table_at - t0);
            ("engine", fin - t0) ]
    in
    t.last_span <-
      (match
         Trace.record_span tr ~hook:k.Trace.k_hook ~engine:k.Trace.k_engine
           ~verdict:v ~errno:(deny_errno l v) ~gen:l.l_gens.(0)
           ~epoch:(Decision_cache.epoch t.dcache) ~start:t0 ~finish:fin ~stages
       with
       | Some id -> id
       | None -> 0)
  end;
  t.last_recorded <- t.record && v <> Pfm.Allow;
  if t.last_recorded then Pfm.Allow else v

let hit t h ~t0 = finish t h ~t0 ~ts:0 (slot_hit h.h_lad)

let miss t h ~t0 ~ts ~sub ~ph ~x ~args ~ctx ~gen ~src =
  finish t h ~t0 ~ts
    (serve h.h_lad ~prog:(fetch h ~gen src) ~sub ~ph ~x ~args ~ctx)

let decide_mount t ?(subject = 0) ?(phase = Phase.initial) (st : Policy_state.t)
    ~source ~target ~fstype ~flags =
  let t0 = start t in
  let h = t.mount in
  let gen = Policy_state.generation st Policy_state.Mounts in
  let ph = Phase.index phase in
  allowed
    (if
       slot_live h.h_lad ~gen ~sub:subject ~ph ~x:0
       && (let sr, tg, fs, fl = slot_args h.h_lad in
           sr == source && tg == target && fs == fstype && fl == flags)
     then hit t h ~t0
     else
       let ts = slot_done t in
       miss t h ~t0 ~ts ~sub:subject ~ph ~x:0 ~gen ~src:st
         ~args:(source, target, fstype, flags)
         ~ctx:(Compile.mount_ctx ~phase:ph ~source ~target ~fstype ~flags))

let decide_umount t ?(phase = Phase.initial) (st : Policy_state.t) ~target
    ~mounted_by ~ruid =
  let t0 = start t in
  let h = t.umount in
  let gen = Policy_state.generation st Policy_state.Mounts in
  let ph = Phase.index phase in
  allowed
    (if
       slot_live h.h_lad ~gen ~sub:ruid ~ph ~x:mounted_by
       && slot_args h.h_lad == target
     then hit t h ~t0
     else
       let ts = slot_done t in
       miss t h ~t0 ~ts ~sub:ruid ~ph ~x:mounted_by ~gen ~src:st ~args:target
         ~ctx:(Compile.umount_ctx ~phase:ph ~target ~mounted_by ~ruid))

let decide_bind t ?(phase = Phase.initial) (st : Policy_state.t) ~port ~proto
    ~exe ~uid =
  let t0 = start t in
  let h = t.bind in
  let gen = Policy_state.generation st Policy_state.Binds in
  let ph = Phase.index phase in
  let x = (port * 2) + (match proto with Bindconf.Tcp -> 0 | Bindconf.Udp -> 1) in
  allowed
    (if slot_live h.h_lad ~gen ~sub:uid ~ph ~x && slot_args h.h_lad == exe then
       hit t h ~t0
     else
       let ts = slot_done t in
       miss t h ~t0 ~ts ~sub:uid ~ph ~x ~gen ~src:st ~args:exe
         ~ctx:(Compile.bind_ctx ~phase:ph ~port ~proto ~exe ~uid))

let decide_ppp_ioctl t ?(subject = 0) ?(phase = Phase.initial)
    (st : Policy_state.t) ~device ~opt =
  let t0 = start t in
  let h = t.ppp in
  let gen = Policy_state.generation st Policy_state.Ppp in
  let ph = Phase.index phase in
  allowed
    (if
       slot_live h.h_lad ~gen ~sub:subject ~ph ~x:0
       && (let dv, op = slot_args h.h_lad in
           dv == device && op == opt)
     then hit t h ~t0
     else
       let ts = slot_done t in
       miss t h ~t0 ~ts ~sub:subject ~ph ~x:0 ~gen ~src:st ~args:(device, opt)
         ~ctx:(Compile.ppp_ctx ~phase:ph ~device ~opt))

let decide_nf_output t nf pkt ~origin =
  let t0 = start t in
  let h = t.nf in
  let gen = Netfilter.generation nf Netfilter.Output in
  Compile.netfilter_of_verdict
    (if
       slot_live h.h_lad ~gen ~sub:0 ~ph:0 ~x:0
       && (let p0, o0 = slot_args h.h_lad in
           p0 == pkt && o0 = origin)
     then hit t h ~t0
     else
       let ts = slot_done t in
       (* packet_ctx is the canonical integer encoding of everything the
          chain can match on: the memo key and the engine input alike. *)
       miss t h ~t0 ~ts ~sub:0 ~ph:0 ~x:0 ~gen ~src:nf ~args:(pkt, origin)
         ~ctx:(Compile.packet_ctx pkt ~origin))

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
  List.iter
    (fun (name, s) ->
      Buffer.add_string b
        (Printf.sprintf
           "hook %s evals %d allow %d deny %d reject %d invalidations %d insns %d\n"
           name s.evals s.allow s.deny s.reject s.invalidations s.insns))
    (stats t);
  List.iter
    (fun (name, status) ->
      Buffer.add_string b (Printf.sprintf "opt %s %s\n" name status))
    (opt_statuses t);
  Buffer.add_string b (Printf.sprintf "opt_rejects %d\n" t.opt_rejects);
  Buffer.contents b

let handle_write t contents =
  match String.trim contents with
  | "reset" -> reset_stats t; Ok ()
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
