(* Benchmark driver: runs one workload for a fixed wall-clock budget and
   prints every metric it measured as one JSON object on the last line
   of standard output.  [perfbench/run.py] builds this program, runs it
   and keeps the metrics BENCHMARK.json declares.  See README.md. *)

open Measure

let workloads = [ "syscalls"; "plane-hot"; "plane-churn"; "journal-replay" ]

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let print_result ~workload ~seed ~trace r =
  let kv k v = json_string k ^ ": " ^ v in
  let metric x =
    "{" ^ String.concat ", "
      [ kv "name" (json_string x.name); kv "value" (json_float x.value);
        kv "unit" (json_string x.unit_) ] ^ "}"
  in
  let info =
    [ ("workload", json_string workload); ("seed", string_of_int seed);
      ("trace", string_of_int trace);
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", json_string Sys.ocaml_version); ("workers", "1") ]
  in
  print_endline
    ("{" ^ String.concat ", "
       (List.map (fun (k, v) -> kv k v) info
        @ [ kv "attempted" (string_of_int r.attempted);
            kv "failed" (string_of_int r.failed);
            kv "metrics" ("[" ^ String.concat ", " (List.map metric r.metrics) ^ "]");
            kv "notes" ("[" ^ String.concat ", " (List.map json_string r.notes) ^ "]") ])
     ^ "}")

let journal_path () = Printf.sprintf ".perfbench-%d.journal" (Unix.getpid ())

let run_workload ~workload ~seed ~seconds ~trace =
  match (workload, trace) with
  | "syscalls", false -> Syscalls.run ~seed ~seconds
  | "syscalls", true -> Syscalls.trace_run ~seed ~seconds
  | "plane-hot", false -> Plane_wl.run Plane_wl.Hot ~seed ~seconds
  | "plane-hot", true -> Plane_wl.trace_run Plane_wl.Hot ~seed ~seconds
  | "plane-churn", false -> Plane_wl.run Plane_wl.Churn ~seed ~seconds
  | "plane-churn", true -> Plane_wl.trace_run Plane_wl.Churn ~seed ~seconds
  | "journal-replay", _ ->
      let path = journal_path () in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
        (fun () ->
          if trace then Replay_wl.trace_run ~seed ~seconds ~path
          else Replay_wl.run ~seed ~seconds ~path)
  | w, _ -> invalid_arg ("unknown workload " ^ w)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref 0 in
  let selftest = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, " workload seed (>= 0)");
      ("--seconds", Arg.Set_float seconds, " measured wall-clock seconds");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
      ("--selftest", Arg.Set selftest, " check the stream generators and exit") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  if !selftest then exit (Selftest.run ())
  else begin
    if not (List.mem !workload workloads) then begin
      prerr_endline ("perfbench: --workload must be one of " ^ String.concat ", " workloads);
      exit 2
    end;
    if !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
      prerr_endline "perfbench: need --seed >= 0, --seconds > 0 and --trace 0|1";
      exit 2
    end;
    let r =
      run_workload ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
    in
    print_result ~workload:!workload ~seed:!seed ~trace:!trace r
  end
