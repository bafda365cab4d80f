(** The filter-machine dispatcher: the glue between the LSM hooks and the
    compiled {!Protego_filter.Pfm} programs.

    Each filtered hook (mount, umount, bind, netfilter output, ppp ioctl)
    asks the dispatcher for a verdict, and every hook walks the same
    ladder: {e front slot -> decision cache -> compiled PFM}.  The
    one-entry front slot matches a repeat of the hook's last arguments
    by physical identity; the {!Decision_cache} memo is keyed on (hook,
    subject credential key, the hook's PFM context); on a miss the
    dispatcher compiles the hook's policy source into a bytecode
    program, caches it, and evaluates it.  The computed verdict is
    memoized (negative results included), stamped with the generation
    vector of the policy sources the hook reads
    ({!Policy_state.generation}); a policy reload bumps the written
    source's generation and lazily invalidates exactly the stamped
    entries.

    The list-walking reference semantics ({!Policy_state.mount_decision}
    and friends, {!Protego_net.Netfilter.walk}) are not a runtime mode:
    they are the oracles the differential and fuzz suites hold every
    compiled verdict to.

    Program caches key on the generation of the policy source
    ({!Policy_state.generation}, or {!Protego_net.Netfilter.generation}
    for the OUTPUT chain).  Every write goes through a setter or chain
    mutator that bumps it, so the next evaluation after a reload
    recompiles, and the same generation invalidates the decision cache:
    the dispatcher never works a version out of the values itself.

    A dispatcher serves one {!Policy_state.t} (as {!Lsm.install} wires
    it); decision-cache keys do not name the state, so sharing a
    dispatcher between states would let entries from one answer for the
    other. *)

type lint_mode = [ `Warn | `Enforce ]
(** What the load-time policy lint gate does with error-severity
    findings: [`Warn] (the default) installs the policy and tags the
    audit trail; [`Enforce] refuses the install. *)

type hook_stats = {
  mutable decisions : int;
      (** every decision the hook served: front slot, memo table or
          engine *)
  mutable granted : int;  (** of [decisions], those the policy allowed *)
  mutable evals : int;
      (** engine evaluations on this hook: front-slot and memo hits never
          reach the engine and are counted by {!Decision_cache} instead *)
  mutable allow : int;   (** of [evals], by verdict *)
  mutable deny : int;
  mutable reject : int;
  mutable invalidations : int;  (** recompiles forced by a policy change *)
  mutable insns : int;          (** bytecode instructions retired *)
}

type t

val create : unit -> t
(** Empty caches and zeroed stats. *)

val decision_engine_name : t -> string
(** What served the most recent decision: ["cache"] (front slot or memo
    table) or ["pfm"] (the compiled program) — the value audit records
    carry.  ["pfm"] before any decision. *)

val cache : t -> Decision_cache.t
(** The decision cache in front of the compiled programs. *)

val trace : t -> Trace.t
(** The decision tracer: per-hook latency histograms for the ["cache"]
    and ["pfm"] series plus the opt-in span ring, whose spans record
    the stages ["slot"], ["table"], ["engine"] as far as the decision
    got.  Unarmed (and skipped by every decision) until a
    clock is installed with {!Trace.set_clock} or spans are switched
    on. *)

val last_span : t -> int option
(** Span id of the most recent decision — what its audit record carries.
    [None] when spans were off for that decision. *)

val lint_mode : t -> lint_mode
val set_lint_mode : t -> lint_mode -> unit
val lint_mode_name : t -> string
(** ["warn"] or ["enforce"]. *)

val record_mode : t -> bool

val set_record : t -> bool -> unit
(** Permissive record mode ([/proc/protego/record]).  While on, every
    decide function returns allow; a decision the policy would actually
    have denied sets {!last_recorded} so the hook layer can emit a
    record-tagged audit entry carrying the full canonical arguments.
    Engine caches and front slots always hold the true verdicts, so
    toggling the mode needs no invalidation. *)

val last_recorded : t -> bool
(** The most recent decide_* call was a would-deny flipped to allow by
    record mode.  [false] after any genuine allow or deny. *)

val stats : t -> (string * hook_stats) list
(** Fixed order: mount, umount, bind, nf_output, ppp_ioctl. *)

val reset_stats : t -> unit

val cached_program : t -> string -> Protego_filter.Pfm.program option
(** The compiled program currently cached for a hook name (as listed by
    {!stats}), if any evaluation has compiled one. *)

(** {1 Profile-guided recompilation}

    [optimize] runs {!Protego_filter.Pfm_opt.optimize} over every hook's
    cached program and gates each rewrite on {!Protego_filter.Pfm.verify}
    {e and} a {!Protego_analysis.Pfm_equiv.prove} equivalence proof
    before installing it in the program cache.  A refuted or unproven
    rewrite is never installed: the original program keeps serving, the
    rejection counter is bumped, and a line is queued on the opt log for
    the caller (the LSM's /proc handler) to push to dmesg/audit.  A
    policy reload recompiles from source as usual, demoting a previously
    installed optimization to "stale" in {!render}. *)

val optimize : t -> (string * string) list
(** Per hook, in {!stats} order: what happened ("installed: ...",
    "unchanged: ...", "rejected: ...", "skipped: no compiled program"). *)

val deoptimize : t -> unit
(** Restore every hook whose slot still serves an installed optimized
    program back to its original compiled program. *)

val opt_rejects : t -> int
(** Rewrites the verify/prove gate has refused since [create]. *)

val drain_opt_log : t -> string list
(** Pending install/reject/revert lines, oldest first; clears the log. *)

val filter_rule : Policy_state.mount_rule -> Protego_filter.Pfm_compile.mount_rule
(** A whitelist rule as the mount/umount compilers and the lint engine
    read it. *)

(** {1 The decision ladder}

    One hook's walk {e front slot -> memo table -> engine} as a
    worker-local unit: the dispatcher holds one per filtered hook, each
    {!Protego_plane.Plane} worker one per plane hook.  The caller brings
    the front-slot identity test on {!slot_args} (['a] is its argument
    value), the generation of the source the hook reads, the PFM context
    and the program:
    {[
      if slot_live l ~gen ~sub ~ph ~x && slot_args l == args then slot_hit l
      else serve l ~prog ~sub ~ph ~x ~args ~ctx
    ]}
    [sub] is the subject credential key, [ph] its phase index, [x] an
    integer argument the identity test does not cover (0 if none).  Both
    return the true verdict, which fills the slot and the memo table. *)

type 'a hook

val hook :
  Decision_cache.t -> Trace.t -> string -> errno:Protego_base.Errno.t option ->
  args:'a -> 'a hook
(** Registers the name with the cache.  [errno] is what a denial
    carries; [args] is the empty slot's placeholder, never matched.
    While the tracer has spans on, {!serve} stamps the end of its table
    stage. *)

val counters : 'a hook -> hook_stats
val cache_hook : 'a hook -> Decision_cache.hook

val deny_errno :
  'a hook -> Protego_filter.Pfm.verdict -> Protego_base.Errno.t option

val slot_live : 'a hook -> gen:int -> sub:int -> ph:int -> x:int -> bool
(** Stamps [gen] as the decision's generation, then tells whether the
    slot was filled under it, [sub], [ph], [x] and the cache's current
    epoch, with the cache enabled. *)

val slot_args : 'a hook -> 'a

val slot_hit : 'a hook -> Protego_filter.Pfm.verdict
(** Counted as a {!Decision_cache} hit. *)

val serve :
  'a hook -> prog:Protego_filter.Pfm.program -> sub:int -> ph:int -> x:int ->
  args:'a -> ctx:Protego_filter.Pfm.ctx -> Protego_filter.Pfm.verdict
(** The memo table, then [prog] on a miss; refills the slot unless the
    cache is disabled. *)

(** {1 Hook decisions} *)

val decide_mount :
  t -> ?subject:int -> ?phase:Protego_base.Phase.t -> Policy_state.t ->
  source:string -> target:string ->
  fstype:string -> flags:Protego_kernel.Ktypes.mount_flag list -> bool
(** [subject] is the caller's credential key (real uid) for the cache key;
    the mount verdict itself is subject-independent, so it defaults to 0
    for callers without task context (bench, fuzz).  [phase] is the
    caller's lifecycle phase (default {!Protego_base.Phase.initial},
    verdict-neutral for unphased policies): every task-scoped decision
    here and below is keyed on it in the front slot and the cache table,
    so a phase transition strands exactly the transitioning task's stale
    entries, and it rides into the PFM context so phase-guarded rules
    see it. *)

val decide_umount :
  t -> ?phase:Protego_base.Phase.t -> Policy_state.t -> target:string ->
  mounted_by:int -> ruid:int -> bool
(** [ruid] doubles as the cache subject. *)

val decide_bind :
  t -> ?phase:Protego_base.Phase.t -> Policy_state.t -> port:int ->
  proto:Protego_policy.Bindconf.proto -> exe:string -> uid:int -> bool
(** [uid] doubles as the cache subject. *)

val decide_ppp_ioctl :
  t -> ?subject:int -> ?phase:Protego_base.Phase.t -> Policy_state.t ->
  device:string -> opt:Protego_net.Ppp.option_ -> bool
(** The cached argument tuple canonicalizes [opt] to the one bit the
    decision reads: whether the option is intrinsically safe. *)

val decide_nf_output :
  t -> Protego_net.Netfilter.t -> Protego_net.Packet.t ->
  origin:Protego_net.Packet.origin -> Protego_net.Netfilter.verdict
(** Installed as the chain's output override at {!Lsm.install} time. *)

(** {1 Load-time policy lint} *)

val lint_input :
  ?chains:
    (string * Protego_net.Netfilter.rule list * Protego_net.Netfilter.verdict)
    list ->
  Policy_state.t -> Protego_analysis.Policy_lint.input
(** The lint engine's view of a policy state (plus, optionally, the
    netfilter chains, which live on the machine rather than in
    {!Policy_state}). *)

val lint_report :
  ?chains:
    (string * Protego_net.Netfilter.rule list * Protego_net.Netfilter.verdict)
    list ->
  Policy_state.t -> Protego_analysis.Policy_lint.finding list
(** [Policy_lint.lint] over {!lint_input} — what /proc/protego/lint
    renders. *)

val check_policy_load :
  t ->
  ?chains:
    (string * Protego_net.Netfilter.rule list * Protego_net.Netfilter.verdict)
    list ->
  Policy_state.t -> sources:string list ->
  [ `Clean
  | `Warned of Protego_analysis.Policy_lint.finding list
  | `Refused of Protego_analysis.Policy_lint.finding list ]
(** The gate behind every /proc policy write: lint the candidate state
    and keep only the findings for [sources] (the sources being written)
    plus the cross-source checks — a pre-existing defect in an unrelated
    source never vetoes an install.  [`Refused] is only possible in
    [`Enforce] mode and only for error-severity findings. *)

(** {1 /proc/protego/filter_stats} *)

val render : t -> string
(** The grammar documented in {!Policy_state}: one [hook] line per
    filtered hook, one [opt <hook> <status>] line
    per hook ("none", "active: ...", "rejected: ...", or "stale (policy
    changed)"), and a closing [opt_rejects <n>] line. *)

val handle_write : t -> string -> (unit, string) result
(** ["reset"], ["optimize"], ["deoptimize"]; anything else errors.  ["optimize"] returns [Ok]
    even when rewrites are rejected by the proof gate — rejections are
    reported through {!render} and {!drain_opt_log}, not as write
    errors. *)

(** {1 /proc/protego/cache_stats} *)

val render_cache : t -> string
(** {!Decision_cache.render} of the dispatcher's cache; hook lines come
    out in the {!stats} order. *)

val handle_cache_write : t -> string -> (unit, string) result
(** ["enable on"], ["enable off"], ["reset"]; anything else errors. *)

(** {1 /proc/protego/trace} *)

val render_trace : t -> string
(** {!Trace.render_trace} of the dispatcher's tracer. *)

val handle_trace_write : t -> string -> (unit, string) result
(** ["on"], ["off"], ["reset"], ["capacity <n>"]; anything else
    errors. *)

(** {1 /proc/protego/latency} *)

val render_latency : t -> string
(** {!Trace.render_latency}: one line per (hook, series) pair — series
    ["cache"] and ["pfm"] — with p50/p90/p99 and max. *)

val handle_latency_write : t -> string -> (unit, string) result
(** ["reset"]; anything else errors. *)
