(* Self-tests of the benchmark's own inputs: seeds determine streams,
   fresh streams share no string physically, and the plane-hot stream
   stays interned. *)

module Workload = Protego_workload.Workload

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

(* Group strings by contents; within a group, count pairs that are the
   same physical string. *)
let shared_pairs strings =
  let groups = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      let g = Option.value ~default:[] (Hashtbl.find_opt groups s) in
      Hashtbl.replace groups s (s :: g))
    strings;
  Hashtbl.fold
    (fun _ g n ->
      let rec pairs = function
        | [] -> 0
        | x :: rest -> List.length (List.filter (fun y -> x == y) rest) + pairs rest
      in
      n + pairs g)
    groups 0

(* Physically distinct values in [reqs]: an interned stream draws every
   request from the generator's pools (8 pools per spec), a fresh one has
   one value per request. *)
let physical_count reqs =
  let groups = Hashtbl.create 1024 in
  Array.iter
    (fun r ->
      let g = Option.value ~default:[] (Hashtbl.find_opt groups r) in
      if not (List.exists (fun x -> x == r) g) then Hashtbl.replace groups r (r :: g))
    reqs;
  Hashtbl.fold (fun _ g n -> n + List.length g) groups 0

let run () =
  let sys seed = Syscalls.generate ~seed Syscalls.requests_per_pass in
  check "syscalls: same seed, same digest"
    (Syscalls.digest (sys 7) = Syscalls.digest (sys 7));
  check "syscalls: other seed, other digest"
    (Syscalls.digest (sys 7) <> Syscalls.digest (sys 8));
  let fresh = Syscalls.fresh_stream (sys 7) in
  check "syscalls: fresh requests share no string"
    (shared_pairs
       (List.concat_map (fun o -> Syscalls.call_strings o.Syscalls.call) (Array.to_list fresh))
     = 0);
  let sched kind seed =
    Workload.generate (Plane_wl.spec kind ~seed) ~workers:1
  in
  List.iter
    (fun kind ->
      let name = Plane_wl.name kind in
      check (name ^ ": same seed, same digest")
        (Plane_wl.digest (sched kind 7) = Plane_wl.digest (sched kind 7));
      check (name ^ ": other seed, other digest")
        (Plane_wl.digest (sched kind 7) <> Plane_wl.digest (sched kind 8)))
    [ Plane_wl.Hot; Plane_wl.Churn ];
  let churn = Array.map Plane_wl.fresh_request (sched Plane_wl.Churn 7).Workload.s_requests in
  check "plane-churn: fresh requests share no string"
    (shared_pairs (List.concat_map Plane_wl.request_strings (Array.to_list churn)) = 0);
  let hot = sched Plane_wl.Hot 7 in
  check "plane-hot: stream is interned"
    (physical_count hot.Workload.s_requests
     <= 8 * (Plane_wl.spec Plane_wl.Hot ~seed:7).Workload.pool);
  check "plane-churn: fresh stream has one value per request"
    (physical_count churn = Array.length churn);
  if !failures = 0 then 0 else 1
