module PS = Protego_core.Policy_state
module Pfm = Protego_filter.Pfm
module Compile = Protego_filter.Pfm_compile

type progs = {
  p_mount : Pfm.program;
  p_umount : Pfm.program;
  p_bind : Pfm.program;
  p_ppp : Pfm.program;
}

type t = {
  epoch : int;
  gens : int array;
  frozen : PS.t;
  progs : progs;
}

(* With [prev], a source's programs carry over from it when the
   source's generation is unchanged: every write goes through a setter
   that bumps, so an equal generation means the very value [prev]
   compiled.  Every other program is compiled.  The generations are read
   before the values (the rule in policy_state.mli): a setter racing the
   build can leave an older stamp on a newer value, which the next
   publish recompiles, but never a newer stamp on an older value. *)
let build ?prev ~epoch (st : PS.t) =
  let gens = Array.of_list (List.map (PS.generation st) PS.sources) in
  let frozen = PS.copy st in
  let kept source =
    let i = PS.source_index source in
    match prev with
    | Some p when gens.(i) = p.gens.(i) -> Some p.progs
    | _ -> None
  in
  let p_mount, p_umount =
    match kept PS.Mounts with
    | Some p -> (p.p_mount, p.p_umount)
    | None ->
        let rules =
          List.map Protego_core.Pfm_dispatch.filter_rule frozen.PS.mounts
        in
        (Compile.mount rules, Compile.umount rules)
  in
  let p_bind =
    match kept PS.Binds with
    | Some p -> p.p_bind
    | None -> Compile.bind frozen.PS.binds
  in
  let p_ppp =
    match kept PS.Ppp with
    | Some p -> p.p_ppp
    | None -> Compile.ppp_ioctl frozen.PS.ppp
  in
  { epoch; gens; frozen; progs = { p_mount; p_umount; p_bind; p_ppp } }

let freeze ~epoch st = build ~epoch st

let clone_prog (p : Pfm.program) =
  { p with Pfm.counters = Array.make (Array.length p.Pfm.counters) 0;
    retired = 0 }

let clone_progs t =
  { p_mount = clone_prog t.progs.p_mount;
    p_umount = clone_prog t.progs.p_umount;
    p_bind = clone_prog t.progs.p_bind;
    p_ppp = clone_prog t.progs.p_ppp }

let adopt_progs ~prev mine t =
  let keep old cur p = if p == old then cur else clone_prog p in
  let o = prev.progs and n = t.progs in
  { p_mount = keep o.p_mount mine.p_mount n.p_mount;
    p_umount = keep o.p_umount mine.p_umount n.p_umount;
    p_bind = keep o.p_bind mine.p_bind n.p_bind;
    p_ppp = keep o.p_ppp mine.p_ppp n.p_ppp }

let gen_for t s = t.gens.(PS.source_index s)

(* --- publication -------------------------------------------------------- *)

type pub = {
  cur : t Atomic.t;
  hist : (int, t) Hashtbl.t;  (* epoch -> snapshot, last [hcap] epochs *)
  hcap : int;
}

let default_history = 1024

let make ?(history = default_history) st =
  let s0 = freeze ~epoch:0 st in
  let hist = Hashtbl.create 64 in
  Hashtbl.replace hist 0 s0;
  { cur = Atomic.make s0; hist; hcap = max 1 history }

let current pub = Atomic.get pub.cur

(* The history is what lets the journal replay re-evaluate an
   epoch-stamped decision against the exact policy that served it.
   Each retained snapshot pins its frozen policy and compiled programs,
   so the window is bounded: only the newest [hcap] epochs survive, and
   a replay reaching further back reports the miss
   (Replay.rp_missing_epochs) instead of growing the plane without
   limit under reload storms. *)
let at_epoch pub e = Hashtbl.find_opt pub.hist e

let publish pub st =
  let prev = Atomic.get pub.cur in
  (* A bump alone (a /proc rewrite of the same text, a reload storm)
     still recompiles its source, so each reload pays for exactly the
     source it touched. *)
  let next = build ~prev ~epoch:(prev.epoch + 1) st in
  Atomic.set pub.cur next;
  Hashtbl.replace pub.hist next.epoch next;
  (* Epochs advance by exactly one, so evicting [epoch - hcap] keeps
     precisely the newest [hcap]. *)
  Hashtbl.remove pub.hist (next.epoch - pub.hcap);
  next

let stale pub st =
  let prev = Atomic.get pub.cur in
  List.exists (fun s -> PS.generation st s <> gen_for prev s) PS.sources
