module Pfm = Protego_filter.Pfm
module Errno = Protego_base.Errno

type hook = {
  hid : int;
  hname : string;
  mutable h_hits : int;
  mutable h_misses : int;
  mutable h_stale : int;
}

(* One memo entry.  The key is (hook id, subject, PFM context): the ctx
   is exactly the engine's input, so two requests share an entry only if
   the engine cannot tell them apart.  [e_hash] caches the key's hash so
   a chain walk compares one int before touching the ctx.  Entries are
   chained per bucket through [e_chain] and kept on an intrusive LRU ring
   through [e_prev]/[e_next]; both end at the table's sentinel instead of
   [None], so relinking allocates nothing. *)
type entry = {
  e_hook : int;
  e_subject : int;
  e_ctx : Pfm.ctx;
  e_hash : int;
  mutable e_gens : int array;
  mutable e_result : (Pfm.verdict * Errno.t option) option;
      (* always [Some]: allocated once per [add], returned as is by [find] *)
  mutable e_chain : entry;
  mutable e_prev : entry;
  mutable e_next : entry;
}

type t = {
  cap : int;
  buckets : entry array;   (* power-of-two length, [nil]-terminated chains *)
  bmask : int;
  nil : entry;
      (* sentinel: [nil.e_next] is the most recent entry, [nil.e_prev]
         the least recent; both are [nil] when the table is empty *)
  mutable size : int;
  mutable enabled : bool;
  (* Atomic: the dispatcher's front slots in other domains compare their
     stamped epoch against this on every decision, while [clear] bumps it
     from whichever domain serviced the /proc write. *)
  epoch : int Atomic.t;
  mutable hits : int;
  mutable misses : int;
  mutable stale : int;
  mutable evicted : int;
  mutable hooks : hook list;  (* reverse registration order *)
}

let default_capacity = 1024

let make_nil () =
  let rec nil =
    { e_hook = -1; e_subject = 0; e_ctx = { Pfm.ints = [||]; strs = [||] };
      e_hash = 0; e_gens = [||]; e_result = None; e_chain = nil; e_prev = nil;
      e_next = nil }
  in
  nil

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

let create ?(capacity = default_capacity) () =
  let cap = max 1 capacity in
  let nb = pow2_at_least (2 * cap) 1 in
  let nil = make_nil () in
  { cap; buckets = Array.make nb nil; bmask = nb - 1; nil; size = 0;
    enabled = true; epoch = Atomic.make 0; hits = 0; misses = 0; stale = 0;
    evicted = 0;
    hooks = [] }

let register t name =
  match List.find_opt (fun h -> h.hname = name) t.hooks with
  | Some h -> h
  | None ->
      let h =
        { hid = List.length t.hooks; hname = name; h_hits = 0; h_misses = 0;
          h_stale = 0 }
      in
      t.hooks <- h :: t.hooks;
      h

let capacity t = t.cap
let length t = t.size
let enabled t = t.enabled
let set_enabled t e = t.enabled <- e
let epoch t = Atomic.get t.epoch

let record_hit t hook =
  t.hits <- t.hits + 1;
  hook.h_hits <- hook.h_hits + 1

let hits t = t.hits
let misses t = t.misses
let stale_evictions t = t.stale
let capacity_evictions t = t.evicted
let hook_stats t = List.rev t.hooks

(* --- key hashing and equality ------------------------------------------- *)

(* Everything below is top-level and closure-free: without flambda a local
   [let rec] that captures variables allocates its closure on every call,
   and these run on every lookup. *)

let mix h x =
  let h = (h lxor x) * 0x100000001b3 in
  h lxor (h lsr 29)

let rec hash_ints a i h =
  if i >= Array.length a then h
  else hash_ints a (i + 1) (mix h (Array.unsafe_get a i))

let rec hash_strs a i h =
  if i >= Array.length a then h
  else hash_strs a (i + 1) (mix h (Hashtbl.hash (Array.unsafe_get a i)))

(* The array lengths are mixed in too, so the int and string fields can
   never trade places in the hash. *)
let hash_key hid subject (ctx : Pfm.ctx) =
  let h = mix (mix hid subject) (Array.length ctx.Pfm.ints) in
  let h = hash_ints ctx.Pfm.ints 0 h in
  let h = mix h (Array.length ctx.Pfm.strs) in
  hash_strs ctx.Pfm.strs 0 h land max_int

let rec same_ints (a : int array) b i =
  i >= Array.length a
  || (Array.unsafe_get a i = Array.unsafe_get b i && same_ints a b (i + 1))

let rec same_strs (a : string array) b i =
  i >= Array.length a
  || String.equal (Array.unsafe_get a i) (Array.unsafe_get b i)
     && same_strs a b (i + 1)

let same_ctx (a : Pfm.ctx) (b : Pfm.ctx) =
  a == b
  || Array.length a.Pfm.ints = Array.length b.Pfm.ints
     && Array.length a.Pfm.strs = Array.length b.Pfm.strs
     && same_ints a.Pfm.ints b.Pfm.ints 0
     && same_strs a.Pfm.strs b.Pfm.strs 0

let same_gens a b = Array.length a = Array.length b && same_ints a b 0

let rec lookup nil e h hid subject ctx =
  if e == nil then nil
  else if
    e.e_hash = h && e.e_hook = hid && e.e_subject = subject
    && same_ctx e.e_ctx ctx
  then e
  else lookup nil e.e_chain h hid subject ctx

(* --- LRU ring ----------------------------------------------------------- *)

let unlink e =
  e.e_prev.e_next <- e.e_next;
  e.e_next.e_prev <- e.e_prev

let push_front t e =
  let nil = t.nil in
  e.e_prev <- nil;
  e.e_next <- nil.e_next;
  nil.e_next.e_prev <- e;
  nil.e_next <- e

let touch t e =
  if t.nil.e_next != e then begin
    unlink e;
    push_front t e
  end

(* Remove [e] from its bucket chain, whose first entry is [p]. *)
let rec unchain nil p e =
  if p != nil then
    if p.e_chain == e then p.e_chain <- e.e_chain
    else unchain nil p.e_chain e

let drop t e =
  unlink e;
  let b = e.e_hash land t.bmask in
  let first = Array.unsafe_get t.buckets b in
  if first == e then Array.unsafe_set t.buckets b e.e_chain
  else unchain t.nil first e;
  t.size <- t.size - 1

(* --- the hot path ------------------------------------------------------- *)

let find t hook ~subject ~ctx ~gens =
  if not t.enabled then None
  else
    let h = hash_key hook.hid subject ctx in
    let e =
      lookup t.nil (Array.unsafe_get t.buckets (h land t.bmask)) h hook.hid
        subject ctx
    in
    if e == t.nil then begin
      t.misses <- t.misses + 1;
      hook.h_misses <- hook.h_misses + 1;
      None
    end
    else if same_gens e.e_gens gens then begin
      touch t e;
      t.hits <- t.hits + 1;
      hook.h_hits <- hook.h_hits + 1;
      e.e_result
    end
    else begin
      drop t e;
      t.stale <- t.stale + 1;
      hook.h_stale <- hook.h_stale + 1;
      t.misses <- t.misses + 1;
      hook.h_misses <- hook.h_misses + 1;
      None
    end

let add t hook ~subject ~ctx ~gens ~verdict ~errno =
  if t.enabled then begin
    let h = hash_key hook.hid subject ctx in
    let b = h land t.bmask in
    let e = lookup t.nil (Array.unsafe_get t.buckets b) h hook.hid subject ctx in
    if e != t.nil then begin
      e.e_gens <- Array.copy gens;
      e.e_result <- Some (verdict, errno);
      touch t e
    end
    else begin
      if t.size >= t.cap then begin
        let lru = t.nil.e_prev in
        if lru != t.nil then begin
          drop t lru;
          t.evicted <- t.evicted + 1
        end
      end;
      (* read the bucket head only now: the eviction may have changed it *)
      let e =
        { e_hook = hook.hid; e_subject = subject; e_ctx = ctx; e_hash = h;
          e_gens = Array.copy gens; e_result = Some (verdict, errno);
          e_chain = Array.unsafe_get t.buckets b; e_prev = t.nil;
          e_next = t.nil }
      in
      Array.unsafe_set t.buckets b e;
      push_front t e;
      t.size <- t.size + 1
    end
  end

(* --- control ------------------------------------------------------------ *)

let clear t =
  Array.fill t.buckets 0 (Array.length t.buckets) t.nil;
  t.nil.e_next <- t.nil;
  t.nil.e_prev <- t.nil;
  t.size <- 0;
  Atomic.incr t.epoch

let reset t =
  clear t;
  t.hits <- 0;
  t.misses <- 0;
  t.stale <- 0;
  t.evicted <- 0;
  List.iter
    (fun h ->
      h.h_hits <- 0;
      h.h_misses <- 0;
      h.h_stale <- 0)
    t.hooks

let render t =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "cache %s capacity %d entries %d\n"
       (if t.enabled then "on" else "off")
       t.cap t.size);
  Buffer.add_string b
    (Printf.sprintf "hits %d misses %d stale %d evicted %d\n" t.hits t.misses
       t.stale t.evicted);
  List.iter
    (fun h ->
      Buffer.add_string b
        (Printf.sprintf "hook %s hits %d misses %d stale %d\n" h.hname h.h_hits
           h.h_misses h.h_stale))
    (hook_stats t);
  Buffer.contents b

let handle_write t contents =
  match String.trim contents with
  | "enable on" -> t.enabled <- true; Ok ()
  | "enable off" -> t.enabled <- false; Ok ()
  | "reset" -> reset t; Ok ()
  | other -> Error ("cache_stats: unknown command: " ^ other)
