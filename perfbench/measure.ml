(* Clock, sample statistics and the result record shared by every
   workload. *)

(* The monotonic-clock stub bechamel links in, declared unboxed and
   [noalloc] so a clock read allocates nothing inside a timed region. *)
external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now () = Int64.to_int (clock_ns ())

let seconds_since t0 = float_of_int (now () - t0) /. 1e9

(* Cost of one back-to-back clock pair, subtracted from per-call means
   that are built from per-call clock pairs. *)
let clock_pair_ns =
  lazy
    (let n = 200_000 in
     let best = ref max_int in
     for _ = 1 to 5 do
       let t0 = now () in
       for _ = 1 to n do
         ignore (Sys.opaque_identity (now ()))
       done;
       best := min !best (now () - t0)
     done;
     float_of_int !best /. float_of_int n)

(* --- statistics ------------------------------------------------------- *)

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (k - 1)))

let median_of_list l =
  match List.sort compare l with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* --- host-speed calibration ------------------------------------------ *)

(* On a shared host, co-tenant load changes how fast this process runs by
   up to 2x, for seconds or minutes at a time, and steal time stays near
   zero, so CPU time slows down with it.  Every timed pass is therefore
   followed by a fixed calibration kernel that uses only the standard
   library: format a key with [Printf.sprintf] and look it up in a
   string-keyed [Hashtbl].  A pass's times are rescaled by
   [calib_nominal_ns] over the kernel's time, so the timing metrics read
   as if the host ran the kernel in exactly [calib_nominal_ns].  The
   kernel's own code never changes with the program under test. *)
let calib_nominal_ns = 25e6

let calib_iters = 60_000

let calib_keys = 4096  (* a power of two: key indices are masked *)

let calib_table =
  lazy
    (let h = Hashtbl.create calib_keys in
     for i = 0 to calib_keys - 1 do
       Hashtbl.replace h (Printf.sprintf "key/%d" (i * 7)) i
     done;
     h)

(* The kernel's time in ns.  The minor heap is emptied first, so the
   kernel never promotes what the pass before it left behind. *)
let calibrate () =
  let h = Lazy.force calib_table in
  Gc.minor ();
  let t0 = now () in
  let acc = ref 0 in
  for i = 0 to calib_iters - 1 do
    let k = Printf.sprintf "key/%d" ((i * 40503) land (calib_keys - 1) * 7) in
    acc := !acc + Hashtbl.find h k
  done;
  ignore (Sys.opaque_identity !acc);
  float_of_int (now () - t0)

(* The factor that rescales a time measured just before: calibration
   kernel at nominal speed over its measured time. *)
let speed_factor () = calib_nominal_ns /. calibrate ()

let calibration_note ~factors ~passes =
  Printf.sprintf
    "timing: each of %d passes rescaled by a calibration kernel run after it \
     (nominal %.0f ms, median measured %.1f ms)"
    passes (calib_nominal_ns /. 1e6)
    (calib_nominal_ns /. median_of_list factors /. 1e6)

(* --- what a run reports ---------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

type result = {
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;  (* human-readable lines printed before the result *)
}

let m name unit_ value = { name; value; unit_ }

let words_to_mib w = float_of_int (w * (Sys.word_size / 8)) /. 1048576.

let heap_peak_mb () = words_to_mib (Gc.quick_stat ()).Gc.top_heap_words

(* Set-ups per run.  Set-up takes a fraction of a second and its time is
   as noisy as any short measurement, so it is repeated, each time
   rescaled by the calibration kernel run after it, and reported as the
   median. *)
let setup_reps = 9

(* Run [setup] [setup_reps] times and keep the last environment. *)
let timed_setups setup =
  let reps = setup_reps in
  let rec go i times last =
    if i = reps then
      match last with
      | Some env -> (env, median_of_list times)
      | None -> invalid_arg "timed_setups"
    else begin
      let t0 = now () in
      let env = setup () in
      let dt = seconds_since t0 in
      go (i + 1) ((dt *. speed_factor ()) :: times) (Some env)
    end
  in
  go 0 [] None

(* Run [pass] until [seconds] of wall clock have elapsed since the first
   pass began (at least one pass). *)
let for_seconds seconds pass =
  let deadline = now () + int_of_float (seconds *. 1e9) in
  let rec loop () =
    pass ();
    if now () < deadline then loop ()
  in
  loop ()

(* --- fresh arguments ----------------------------------------------------- *)

(* Real syscall arguments arrive in fresh kernel buffers, so the fresh
   streams copy every string: identity-keyed fast paths must not see the
   same physical argument twice. *)
let fresh s = Bytes.to_string (Bytes.of_string s)

let fresh_ppp_opt = function
  | Protego_net.Ppp.Compression s -> Protego_net.Ppp.Compression (fresh s)
  | Protego_net.Ppp.Modem_flow_control s -> Protego_net.Ppp.Modem_flow_control (fresh s)
  | o -> o

let digest_lines f =
  let b = Buffer.create 65536 in
  f (fun line ->
      Buffer.add_string b line;
      Buffer.add_char b '\n');
  Digest.to_hex (Digest.string (Buffer.contents b))
