(* The decision cache: LRU and eviction order, negative-result caching,
   generation-vector staleness, the enable/off bypass, the
   /proc/protego/cache_stats interface, and the audit metadata cache hits
   carry. *)

open Protego_base
open Protego_kernel
open Ktypes
module Image = Protego_dist.Image
module Pfm = Protego_filter.Pfm
module PD = Protego_core.Pfm_dispatch
module PS = Protego_core.Policy_state
module DC = Protego_core.Decision_cache

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let errno =
  Alcotest.testable (fun ppf e -> Fmt.string ppf (Errno.to_string e)) Errno.equal

let contains haystack needle =
  let nl = String.length needle in
  let rec go i =
    i + nl <= String.length haystack
    && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

let starts_with haystack prefix =
  String.length haystack >= String.length prefix
  && String.sub haystack 0 (String.length prefix) = prefix

(* --- the table itself --------------------------------------------------- *)

(* A one-string PFM context, the table's key in these tests. *)
let key s = { Pfm.ints = [||]; strs = [| s |] }

let test_lru_eviction () =
  let c = DC.create ~capacity:2 () in
  let h = DC.register c "mount" in
  let gens = [| 0 |] in
  DC.add c h ~subject:0 ~ctx:(key "a") ~gens ~verdict:Pfm.Allow ~errno:None;
  DC.add c h ~subject:0 ~ctx:(key "b") ~gens ~verdict:Pfm.Allow ~errno:None;
  check_int "at capacity" 2 (DC.length c);
  (* A hit refreshes recency: touching "a" makes "b" the LRU victim. *)
  check "a hits" true (DC.find c h ~subject:0 ~ctx:(key "a") ~gens <> None);
  DC.add c h ~subject:0 ~ctx:(key "c") ~gens ~verdict:Pfm.Deny ~errno:None;
  check_int "one capacity eviction" 1 (DC.capacity_evictions c);
  check_int "still at capacity" 2 (DC.length c);
  check "b was the victim" true (DC.find c h ~subject:0 ~ctx:(key "b") ~gens = None);
  check "a survived" true (DC.find c h ~subject:0 ~ctx:(key "a") ~gens <> None);
  check "c resident" true (DC.find c h ~subject:0 ~ctx:(key "c") ~gens <> None);
  (* Re-adding a resident key refreshes in place, no eviction. *)
  DC.add c h ~subject:0 ~ctx:(key "a") ~gens ~verdict:Pfm.Deny ~errno:None;
  check_int "refresh is not an insert" 1 (DC.capacity_evictions c);
  check_int "size unchanged" 2 (DC.length c)

let test_negative_caching () =
  let c = DC.create () in
  let h = DC.register c "bind" in
  let gens = [| 5 |] in
  DC.add c h ~subject:8 ~ctx:(key "k") ~gens ~verdict:Pfm.Deny
    ~errno:(Some Errno.EACCES);
  (match DC.find c h ~subject:8 ~ctx:(key "k") ~gens with
  | Some (Pfm.Deny, Some e) ->
      Alcotest.check errno "denial errno served" Errno.EACCES e
  | _ -> Alcotest.fail "negative result not cached");
  DC.add c h ~subject:8 ~ctx:(key "ok") ~gens ~verdict:Pfm.Allow ~errno:None;
  (match DC.find c h ~subject:8 ~ctx:(key "ok") ~gens with
  | Some (Pfm.Allow, None) -> ()
  | _ -> Alcotest.fail "positive result not cached");
  (* Subjects are part of the key. *)
  check "other subject misses" true
    (DC.find c h ~subject:9 ~ctx:(key "k") ~gens = None)

let test_generation_staleness () =
  let c = DC.create () in
  let h = DC.register c "mount" in
  DC.add c h ~subject:0 ~ctx:(key "k") ~gens:[| 3 |] ~verdict:Pfm.Allow ~errno:None;
  check "fresh generation hits" true
    (DC.find c h ~subject:0 ~ctx:(key "k") ~gens:[| 3 |] <> None);
  (* A bumped generation is a miss AND evicts the stale entry. *)
  check "stale generation misses" true
    (DC.find c h ~subject:0 ~ctx:(key "k") ~gens:[| 4 |] = None);
  check_int "stale eviction counted" 1 (DC.stale_evictions c);
  check_int "stale lookup counts as a miss" 1 (DC.misses c);
  check_int "entry gone" 0 (DC.length c);
  (* The entry was dropped, so the next lookup is a plain miss. *)
  check "second lookup plain miss" true
    (DC.find c h ~subject:0 ~ctx:(key "k") ~gens:[| 4 |] = None);
  check_int "no second stale eviction" 1 (DC.stale_evictions c);
  check_int "but a second miss" 2 (DC.misses c);
  (* The caller may reuse its gens array: insertion must copy it. *)
  let gens = [| 7 |] in
  DC.add c h ~subject:0 ~ctx:(key "r") ~gens ~verdict:Pfm.Allow ~errno:None;
  gens.(0) <- 8;
  check "entry stamped with insertion-time gens" true
    (DC.find c h ~subject:0 ~ctx:(key "r") ~gens:[| 7 |] <> None)

let test_enable_off_bypass () =
  let c = DC.create () in
  let h = DC.register c "ppp_ioctl" in
  let gens = [| 0 |] in
  DC.add c h ~subject:0 ~ctx:(key "k") ~gens ~verdict:Pfm.Allow ~errno:None;
  ignore (DC.find c h ~subject:0 ~ctx:(key "k") ~gens);
  DC.set_enabled c false;
  check "disabled lookups miss" true
    (DC.find c h ~subject:0 ~ctx:(key "k") ~gens = None);
  DC.add c h ~subject:0 ~ctx:(key "new") ~gens ~verdict:Pfm.Deny ~errno:None;
  (* A pure bypass: no insert, no counter movement. *)
  check_int "no insert while disabled" 1 (DC.length c);
  check_int "hits untouched" 1 (DC.hits c);
  check_int "misses untouched" 0 (DC.misses c);
  DC.set_enabled c true;
  (* Entries cached before the bypass are still valid afterwards: their
     generation stamps, not the toggle, decide freshness. *)
  check "entry servable after re-enable" true
    (DC.find c h ~subject:0 ~ctx:(key "k") ~gens <> None)

let test_register_and_reset () =
  let c = DC.create ~capacity:4 () in
  let hm = DC.register c "mount" in
  let hm' = DC.register c "mount" in
  check "registration is idempotent" true (hm == hm');
  let hb = DC.register c "bind" in
  check_int "dense ids" 1 hb.DC.hid;
  DC.add c hm ~subject:0 ~ctx:(key "x") ~gens:[| 0 |] ~verdict:Pfm.Allow ~errno:None;
  ignore (DC.find c hm ~subject:0 ~ctx:(key "x") ~gens:[| 0 |]);
  ignore (DC.find c hb ~subject:0 ~ctx:(key "y") ~gens:[| 0 |]);
  check_str "render"
    "cache on capacity 4 entries 1\n\
     hits 1 misses 1 stale 0 evicted 0\n\
     hook mount hits 1 misses 0 stale 0\n\
     hook bind hits 0 misses 1 stale 0\n"
    (DC.render c);
  (* clear drops entries but keeps counters; reset zeroes everything; both
     advance the epoch so front slots die with the entries. *)
  let e0 = DC.epoch c in
  DC.clear c;
  check "clear bumps epoch" true (DC.epoch c > e0);
  check_int "clear drops entries" 0 (DC.length c);
  check_int "clear keeps counters" 1 (DC.hits c);
  DC.reset c;
  check "reset bumps epoch" true (DC.epoch c > e0 + 1);
  check_str "reset zeroes the stats"
    "cache on capacity 4 entries 0\n\
     hits 0 misses 0 stale 0 evicted 0\n\
     hook mount hits 0 misses 0 stale 0\n\
     hook bind hits 0 misses 0 stale 0\n"
    (DC.render c);
  (match DC.handle_write c "bogus" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "junk command accepted")

(* --- the dispatcher in front of a policy state -------------------------- *)

let raw_dispatch () =
  let st = PS.create () in
  PS.set_mounts st
    [ { PS.mr_source = "/dev/a"; mr_target = "/m"; mr_fstype = "ext4";
        mr_flags = []; mr_mode = `Users; mr_phase = PS.Phase.Always } ];
  (st, PD.create ())

let test_dispatch_cache_flow () =
  let st, disp = raw_dispatch () in
  let dc = PD.cache disp in
  let decide subject =
    PD.decide_mount disp ~subject st ~source:"/dev/a" ~target:"/m"
      ~fstype:"ext4" ~flags:[]
  in
  check "allowed" true (decide 1);
  check_str "first decision from the engine" "pfm" (PD.decision_engine_name disp);
  check "repeat allowed" true (decide 1);
  check_str "repeat served by the cache" "cache" (PD.decision_engine_name disp);
  check_int "one hit" 1 (DC.hits dc);
  (* The subject credential key separates entries with identical args. *)
  check "other subject" true (decide 2);
  check_str "other subject is a miss" "pfm" (PD.decision_engine_name disp);
  check_int "two entries" 2 (DC.length dc);
  check "back to the first subject" true (decide 1);
  check_str "still cached per subject" "cache" (PD.decision_engine_name disp);
  (* A reload through the setter bumps the generation, so nothing stale
     is served. *)
  PS.set_mounts st [];
  check "reload denies" true (not (decide 1));
  check_str "post-reload decision from the engine" "pfm"
    (PD.decision_engine_name disp);
  check "cached denial" true (not (decide 1));
  check_str "denial cached too" "cache" (PD.decision_engine_name disp)

let test_dispatch_reset_kills_front_slot () =
  let st, disp = raw_dispatch () in
  let dc = PD.cache disp in
  let decide () =
    PD.decide_mount disp ~subject:0 st ~source:"/dev/a" ~target:"/m"
      ~fstype:"ext4" ~flags:[]
  in
  ignore (decide ());
  ignore (decide ());
  check_str "warm" "cache" (PD.decision_engine_name disp);
  DC.reset dc;
  (* After a wholesale reset nothing may be served from memo state — the
     epoch kills the dispatcher's front slot along with the table. *)
  ignore (decide ());
  check_str "post-reset decision re-evaluated" "pfm"
    (PD.decision_engine_name disp);
  check_int "post-reset miss counted" 1 (DC.misses dc);
  check_int "no phantom hit" 0 (DC.hits dc)

let test_dispatch_disable_bypasses () =
  let st, disp = raw_dispatch () in
  let dc = PD.cache disp in
  let decide () =
    PD.decide_mount disp ~subject:0 st ~source:"/dev/a" ~target:"/m"
      ~fstype:"ext4" ~flags:[]
  in
  DC.set_enabled dc false;
  ignore (decide ());
  ignore (decide ());
  check_str "bypassed decisions come from the engine" "pfm"
    (PD.decision_engine_name disp);
  check_int "no counters while disabled" 0 (DC.hits dc + DC.misses dc);
  check_int "both evals reached the filter machine" 2
    (List.assoc "mount" (PD.stats disp)).PD.evals

(* --- memo keys are exact ------------------------------------------------- *)

module Plane = Protego_plane.Plane
module Netfilter = Protego_net.Netfilter
module Packet = Protego_net.Packet
module Ipaddr = Protego_net.Ipaddr

(* Joined with a US (0x1f) separator, the whitelisted triple
   (a, b<US>c, d) and the request (a<US>b, c, d) render the same key.
   Memo keys compare the PFM context field by field, so the allow cached
   for the first must never be served to the second. *)
let us_state () =
  let st = PS.create () in
  (match PS.parse_mounts "allow a b\x1fc d nosuid user\n" with
   | Ok rules -> PS.set_mounts st rules
   | Error e -> Alcotest.fail ("whitelist refused: " ^ e));
  st

let us_mount source target =
  Plane.Mount
    { subject = 1000; source; target; fstype = "d"; flags = [ Mf_nosuid ] }

let us_allowed = us_mount "a" "b\x1fc"
let us_shifted = us_mount "a\x1fb" "c"

let oracle_checks st =
  check "the rule allows its own triple" true (Plane.request_oracle st us_allowed);
  check "the shifted triple is denied" false (Plane.request_oracle st us_shifted)

let request_label = function
  | Plane.Mount { source; target; _ } ->
      Printf.sprintf "mount %S %S" source target
  | Plane.Umount _ | Plane.Bind _ | Plane.Ppp_ioctl _ -> "other"

let test_dispatch_key_exact () =
  let st = us_state () in
  oracle_checks st;
  let disp = PD.create () in
  List.iter
    (fun req ->
      match req with
      | Plane.Mount { subject; source; target; fstype; flags } ->
          check ("dispatch " ^ request_label req)
            (Plane.request_oracle st req)
            (PD.decide_mount disp ~subject st ~source ~target ~fstype ~flags)
      | Plane.Umount _ | Plane.Bind _ | Plane.Ppp_ioctl _ -> assert false)
    [ us_allowed; us_shifted; us_allowed; us_shifted ]

let test_plane_key_exact () =
  let st = us_state () in
  oracle_checks st;
  let p = Plane.create st in
  List.iter
    (fun req ->
      check ("plane " ^ request_label req)
        (Plane.request_oracle st req)
        ((Plane.decide p req).Plane.o_verdict = Pfm.Allow))
    [ us_allowed; us_shifted; us_allowed; us_shifted ];
  (* The same stream through a journaled run: outcomes and the audit
     trail stitched back from the journal must both follow the oracle. *)
  let p = Plane.create st in
  let reqs = [| us_allowed; us_shifted; us_allowed; us_shifted |] in
  let rr = Plane.run p reqs in
  Array.iteri
    (fun i req ->
      let want = Plane.request_oracle st req in
      let label = Printf.sprintf "run #%d %s" i (request_label req) in
      check (label ^ " outcome") want
        (rr.Plane.rr_outcomes.(i).Plane.o_verdict = Pfm.Allow);
      check (label ^ " journaled") want rr.Plane.rr_audit.(i).Plane.a_allowed)
    reqs

(* --- allocation on the warm path ----------------------------------------- *)

let words_per_call = Test_support.words_per_call

let warm_calls = 10_000

(* Two interned requests of one hook, alternated: each call misses the
   one-entry front slot (it holds the other request) and hits the memo
   table.  A memo hit may allocate the PFM context and the outcome, no
   key string. *)
let test_plane_alloc () =
  let st = us_state () in
  let p = Plane.create st in
  let reqs = [| us_allowed; us_shifted |] in
  let run = Plane.sim_begin p in
  Array.iter (fun r -> ignore (Plane.decide_on p ~worker:0 r)) reqs;
  let evals () =
    List.fold_left (fun acc (_, h) -> acc + h.Plane.ht_evals) 0
      (Plane.hook_stats p)
  in
  let evals0 = evals () in
  let w =
    words_per_call warm_calls (fun i ->
        ignore (Plane.decide_on p ~worker:0 reqs.(i land 1)))
  in
  check_int "every warm call was a memo hit" evals0 (evals ());
  check (Printf.sprintf "memo-hit decide_on allocates <= 20 words (%.2f)" w)
    true (w <= 20.);
  let o = Plane.decide_on p ~worker:0 us_allowed in
  let w =
    words_per_call warm_calls (fun i ->
        Plane.journal_decision p ~worker:0 ~run ~seq:i us_allowed o)
  in
  Plane.sim_end p;
  check (Printf.sprintf "journal_decision allocates nothing (%.4f)" w) true
    (w < 0.01)

(* Every dispatcher hook, warm: a memo hit allocates at most the hook's
   PFM context, the table's hit result and the front-slot refill's
   argument tuple (the per-hook bound is what the hook's ladder
   allocated when the gate was set), and a front-slot hit allocates
   nothing at all. *)
let memo_hit_words =
  [ ("mount", 15.); ("umount", 9.); ("bind", 10.); ("ppp_ioctl", 11.);
    ("nf_output", 16.) ]

let driver name =
  let disp = PD.create () in
  (disp, List.find (fun d -> d.Test_support.hd_name = name)
           (Test_support.hook_drivers (Test_support.Dispatcher disp)))

let evals disp name = (List.assoc name (PD.stats disp)).PD.evals

let test_memo_hit_alloc name () =
  let disp, d = driver name in
  d.Test_support.hd_decide 0;
  d.Test_support.hd_decide 1;
  let evals0 = evals disp name in
  let w = words_per_call warm_calls d.Test_support.hd_decide in
  check_int "every warm call was a memo hit" evals0 (evals disp name);
  check_str "served by the cache" "cache" (PD.decision_engine_name disp);
  let bound = List.assoc name memo_hit_words in
  check
    (Printf.sprintf "memo-hit decide_%s allocates <= %g words (%.2f)" name
       bound w)
    true (w <= bound)

let test_slot_hit_alloc name () =
  let disp, d = driver name in
  d.Test_support.hd_decide 0;
  let hits0 = DC.hits (PD.cache disp) in
  let w = words_per_call warm_calls (fun _ -> d.Test_support.hd_decide 0) in
  check_int "every warm call was a front-slot hit" (hits0 + warm_calls)
    (DC.hits (PD.cache disp));
  check_int "the table was never consulted" 1 (DC.misses (PD.cache disp));
  check (Printf.sprintf "front-slot decide_%s allocates nothing (%.4f)" name w)
    true (w < 0.01)

(* The plane's workers serve through the same ladder.  Per hook, a memo
   hit allocates the PFM context (10/9/10/8 words) and the 5-word
   outcome record, and a front-slot hit the outcome record alone. *)
let plane_memo_hit_words =
  [ ("mount", 15.); ("umount", 14.); ("bind", 15.); ("ppp_ioctl", 13.) ]

let plane_slot_hit_words = 5.

let plane_driver name =
  let p = Plane.create (Test_support.driver_state ()) in
  ( p,
    List.find
      (fun d -> d.Test_support.hd_name = name)
      (Test_support.hook_drivers (Test_support.Plane_worker p)) )

let plane_hook p name = List.assoc name (Plane.hook_stats p)

let test_plane_memo_hit_alloc name () =
  let p, d = plane_driver name in
  ignore (Plane.sim_begin p : int);
  d.Test_support.hd_decide 0;
  d.Test_support.hd_decide 1;
  let evals0 = (plane_hook p name).Plane.ht_evals in
  let w = words_per_call warm_calls d.Test_support.hd_decide in
  Plane.sim_end p;
  check_int "every warm call was a memo hit" evals0
    (plane_hook p name).Plane.ht_evals;
  let bound = List.assoc name plane_memo_hit_words in
  check
    (Printf.sprintf "memo-hit plane %s allocates <= %g words (%.2f)" name
       bound w)
    true (w <= bound)

let test_plane_slot_hit_alloc name () =
  let p, d = plane_driver name in
  ignore (Plane.sim_begin p : int);
  d.Test_support.hd_decide 0;
  let hits0 = (plane_hook p name).Plane.ht_hits in
  let w = words_per_call warm_calls (fun _ -> d.Test_support.hd_decide 0) in
  Plane.sim_end p;
  let ht = plane_hook p name in
  check_int "every warm call was a hit" (hits0 + warm_calls) ht.Plane.ht_hits;
  check_int "the engine ran once" 1 ht.Plane.ht_evals;
  check
    (Printf.sprintf "front-slot plane %s allocates <= %g words (%.4f)" name
       plane_slot_hit_words w)
    true (w <= plane_slot_hit_words)

(* --- /proc/protego/cache_stats ------------------------------------------ *)

let fixture () =
  let img = Image.build Image.Protego in
  img.Image.machine.password_source <- (fun _ -> None);
  img

let test_cache_stats_proc () =
  let img = fixture () in
  let m = img.Image.machine in
  let root = Image.login img "root" in
  let alice = Image.login img "alice" in
  let read () =
    Syntax.expect_ok "read cache_stats"
      (Syscall.read_file m root "/proc/protego/cache_stats")
  in
  let write s = Syscall.write_file m root "/proc/protego/cache_stats" s in
  let denied_mount () =
    ignore
      (Syscall.mount m alice ~source:"/dev/sda2" ~target:"/etc" ~fstype:"ext4"
         ~flags:[])
  in
  Syntax.expect_ok "reset" (write "reset\n");
  check "zeroed after reset" true
    (starts_with (read ())
       "cache on capacity 1024 entries 0\nhits 0 misses 0 stale 0 evicted 0\n");
  denied_mount ();
  denied_mount ();
  check "one miss one hit" true
    (starts_with (read ())
       "cache on capacity 1024 entries 1\nhits 1 misses 1 stale 0 evicted 0\n");
  check "per-hook breakdown" true
    (contains (read ()) "hook mount hits 1 misses 1 stale 0\n");
  (* A policy write bumps the source generation: the cached denial is
     stale, evicted lazily on the next lookup. *)
  let wl =
    Syntax.expect_ok "read whitelist"
      (Syscall.read_file m root "/proc/protego/mount_whitelist")
  in
  Syntax.expect_ok "rewrite whitelist"
    (Syscall.write_file m root "/proc/protego/mount_whitelist" wl);
  denied_mount ();
  check "reload invalidated exactly the stale entry" true
    (starts_with (read ())
       "cache on capacity 1024 entries 1\nhits 1 misses 2 stale 1 evicted 0\n");
  (* enable off / on round-trips and shows in the header. *)
  Syntax.expect_ok "disable" (write "enable off\n");
  check "off in header" true (starts_with (read ()) "cache off ");
  denied_mount ();
  check "no counter movement while off" true
    (contains (read ()) "hits 1 misses 2 stale 1 evicted 0\n");
  Syntax.expect_ok "re-enable" (write "enable on\n");
  check "on in header" true (starts_with (read ()) "cache on ");
  (* Unknown commands are EINVAL; the file is root-only like the rest of
     /proc/protego. *)
  Alcotest.(check (result unit errno))
    "junk command" (Error Errno.EINVAL) (write "flush everything\n");
  Alcotest.(check (result unit errno))
    "unprivileged read" (Error Errno.EACCES)
    (Result.map
       (fun _ -> ())
       (Syscall.read_file m alice "/proc/protego/cache_stats"));
  Alcotest.(check (result unit errno))
    "unprivileged write" (Error Errno.EACCES)
    (Syscall.write_file m alice "/proc/protego/cache_stats" "reset\n")

(* --- audit metadata ------------------------------------------------------ *)

let test_audit_cache_metadata () =
  let img = fixture () in
  let m = img.Image.machine in
  let alice = Image.login img "alice" in
  let disp =
    match img.Image.protego with
    | Some lsm -> Protego_core.Lsm.dispatch lsm
    | None -> Alcotest.fail "Protego image has no LSM"
  in
  Audit.clear m;
  PD.reset_stats disp;
  let denied_mount () =
    ignore
      (Syscall.mount m alice ~source:"/dev/sda2" ~target:"/etc" ~fstype:"ext4"
         ~flags:[])
  in
  denied_mount ();
  denied_mount ();
  (match Audit.records m with
  | [ r1; r2 ] ->
      check "engine record tagged pfm" true (r1.Audit.au_engine = Some "pfm");
      check "cache hit tagged cache" true (r2.Audit.au_engine = Some "cache");
      (* Apart from the tag (and the clock), the records are identical. *)
      check "same op" true (r1.Audit.au_op = r2.Audit.au_op);
      check "same object" true (r1.Audit.au_obj = r2.Audit.au_obj);
      check "same subject" true (r1.Audit.au_uid = r2.Audit.au_uid);
      check "same verdict" true (r1.Audit.au_allowed = r2.Audit.au_allowed)
  | rs -> Alcotest.fail (Printf.sprintf "expected 2 records, got %d" (List.length rs)));
  check_int "by_engine finds the hit" 1 (List.length (Audit.by_engine m "cache"));
  check_int "by_engine finds the eval" 1 (List.length (Audit.by_engine m "pfm"));
  (* The filter machine never saw the second decision: hook counters count
     engine evaluations, and a cache hit is not one. *)
  check_int "no double-counted eval" 1
    (List.assoc "mount" (PD.stats disp)).PD.evals

(* --- policy_state generations ------------------------------------------- *)

let test_generation_counters () =
  let st = PS.create () in
  let all = [ PS.Mounts; PS.Binds; PS.Delegation; PS.Accounts; PS.Ppp ] in
  List.iter
    (fun s -> check_int (PS.source_name s ^ " starts at 0") 0 (PS.generation st s))
    all;
  PS.bump_generation st PS.Binds;
  PS.bump_generation st PS.Binds;
  check_int "binds bumped" 2 (PS.generation st PS.Binds);
  List.iter
    (fun s ->
      if s <> PS.Binds then
        check_int (PS.source_name s ^ " untouched") 0 (PS.generation st s))
    all;
  check_str "source names" "mounts,binds,delegation,accounts,ppp"
    (String.concat "," (List.map PS.source_name all))

let test_proc_write_bumps_generation () =
  let img = fixture () in
  let m = img.Image.machine in
  let root = Image.login img "root" in
  let st =
    match img.Image.protego with
    | Some lsm -> Protego_core.Lsm.state lsm
    | None -> Alcotest.fail "Protego image has no LSM"
  in
  (* Image construction itself loads policy through /proc, so generations
     are already non-zero here; assert on deltas. *)
  let binds_before = PS.generation st PS.Binds in
  let mounts_before = PS.generation st PS.Mounts in
  let bm =
    Syntax.expect_ok "read bind_map"
      (Syscall.read_file m root "/proc/protego/bind_map")
  in
  Syntax.expect_ok "rewrite bind_map"
    (Syscall.write_file m root "/proc/protego/bind_map" bm);
  check_int "bind write bumps binds" (binds_before + 1)
    (PS.generation st PS.Binds);
  check_int "bind write leaves mounts alone" mounts_before
    (PS.generation st PS.Mounts)

let suites =
  [ ("cache:table",
      [ Alcotest.test_case "LRU capacity eviction" `Quick test_lru_eviction;
        Alcotest.test_case "negative results" `Quick test_negative_caching;
        Alcotest.test_case "generation staleness" `Quick
          test_generation_staleness;
        Alcotest.test_case "enable off bypass" `Quick test_enable_off_bypass;
        Alcotest.test_case "registration, render, reset" `Quick
          test_register_and_reset ]);
    ("cache:dispatch",
      [ Alcotest.test_case "hit/miss flow" `Quick test_dispatch_cache_flow;
        Alcotest.test_case "reset kills the front slot" `Quick
          test_dispatch_reset_kills_front_slot;
        Alcotest.test_case "disable bypasses" `Quick
          test_dispatch_disable_bypasses;
        Alcotest.test_case "US in an argument never aliases a key" `Quick
          test_dispatch_key_exact;
        Alcotest.test_case "plane memo keys are exact" `Quick
          test_plane_key_exact ]);
    ("cache:alloc",
      Alcotest.test_case "plane memo hit and journal append" `Quick
        test_plane_alloc
      :: List.concat_map
          (fun (name, _) ->
            [ Alcotest.test_case (name ^ " memo hit") `Quick
                (test_memo_hit_alloc name);
              Alcotest.test_case (name ^ " front-slot hit") `Quick
                (test_slot_hit_alloc name) ])
          memo_hit_words
      @ List.concat_map
          (fun (name, _) ->
            [ Alcotest.test_case ("plane " ^ name ^ " memo hit") `Quick
                (test_plane_memo_hit_alloc name);
              Alcotest.test_case ("plane " ^ name ^ " front-slot hit") `Quick
                (test_plane_slot_hit_alloc name) ])
          plane_memo_hit_words);
    ("cache:proc",
      [ Alcotest.test_case "/proc/protego/cache_stats" `Quick
          test_cache_stats_proc ]);
    ("cache:audit",
      [ Alcotest.test_case "cache-hit metadata" `Quick
          test_audit_cache_metadata ]);
    ("cache:generations",
      [ Alcotest.test_case "counters" `Quick test_generation_counters;
        Alcotest.test_case "/proc writes bump" `Quick
          test_proc_write_bumps_generation ]) ]
