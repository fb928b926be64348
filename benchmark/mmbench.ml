(* mmbench — the repository's benchmark: six workloads, end to end and per
   layer. See README.md in this directory.

     mmbench run     [--seed N] [--workloads a,b] [--out FILE]
     mmbench trace   --out DIR [--seed N] [--workloads a,b]
     mmbench compare A.json B.json
     mmbench bench   --workload W --seed N --seconds S --trace 0|1

   [bench] is the single-workload form BENCHMARK.json's command runs: it
   prints the registered metrics and ends with one JSON result line. *)

open Mmb
module J = Telemetry.Json

let usage =
  "usage:\n\
  \  mmbench run [--seed N] [--workloads a,b,...] [--out FILE]\n\
  \  mmbench trace --out DIR [--seed N] [--workloads a,b,...]\n\
  \  mmbench compare A.json B.json\n\
  \  mmbench bench --workload W --seed N --seconds S --trace 0|1"

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("mmbench: " ^ m);
      exit 2)
    fmt

(* --name value pairs, each name one of [known]. *)
let parse_flags ~known args =
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        let k = String.sub k 2 (String.length k - 2) in
        if not (List.mem k known) then die "unknown flag --%s\n%s" k usage;
        go ((k, v) :: acc) rest
    | [] -> acc
    | x :: _ -> die "unexpected argument %S\n%s" x usage
  in
  go [] args

let flag flags k = List.assoc_opt k flags

let number flags k conv default =
  match flag flags k with
  | None -> default
  | Some v -> ( match conv v with Some x -> x | None -> die "--%s wants a number, got %S" k v)

let seed flags = number flags "seed" int_of_string_opt 12345

let workload_names flags =
  match flag flags "workloads" with
  | None -> Workloads.names
  | Some s ->
      let ws = String.split_on_char ',' s in
      List.iter
        (fun w ->
          if Workloads.find w = None then
            die "unknown workload %S (known: %s)" w (String.concat ", " Workloads.names))
        ws;
      ws

let read_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> ( try J.parse s with J.Parse_error m -> die "%s: %s" path m)
  | exception Sys_error m -> die "%s" m

let write_json path doc =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (J.to_string doc);
      output_char oc '\n')

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  go dir

(* --- run ---------------------------------------------------------------- *)

(** Rounds per workload, each in a fresh process; [setup_s] is the
    fastest round's, [peak_rss_mb] the median over them. *)
let rounds_per_run = 10

(** Timed seconds of one round of [run]. *)
let seconds_per_round = 1.0

let run args =
  let flags = parse_flags ~known:[ "seed"; "workloads"; "out" ] args in
  Harness.refuse_polluted_env ();
  let seed = seed flags in
  let results =
    Harness.run_plan ~workloads:(workload_names flags) ~seed ~rounds:rounds_per_run
      ~seconds:seconds_per_round
  in
  Results.print_table results;
  let out = Option.value ~default:"mmbench-results.json" (flag flags "out") in
  write_json out
    (Results.to_json ~env:(Harness.env_json ())
       ~config:
         (J.Obj
            [
              ("seed", J.Int seed);
              ("rounds", J.Int rounds_per_run);
              ("seconds_per_round", J.Float seconds_per_round);
            ])
       results);
  Printf.printf "wrote %s\n" out;
  if List.exists (fun w -> w.Results.failed > 0) results then exit 1

(* --- trace -------------------------------------------------------------- *)

(** Largest gap allowed between the collectors' phase histograms and the
    benchmark's outside time of the same calls. *)
let ledger_tolerance = 0.05

let trace args =
  let flags = parse_flags ~known:[ "seed"; "workloads"; "out" ] args in
  Harness.refuse_polluted_env ();
  let dir = match flag flags "out" with Some d -> d | None -> die "trace needs --out DIR" in
  mkdir_p dir;
  let seed = seed flags in
  let ok = ref true in
  let reports =
    List.filter_map
      (fun w ->
        match Harness.trace_workload ~workload:w ~seed ~seconds:0.0 ~out_dir:(Some dir) with
        | report ->
            let metric k =
              match Option.bind (J.member "metrics" report) (J.member k) with
              | Some (J.Float f) -> f
              | _ -> 0.0
            in
            let gap =
              Results.float_field "gap" (Option.value ~default:J.Null (J.member "ledger" report))
            in
            if Results.int_field "failed" report > 0 || gap > ledger_tolerance then ok := false;
            Printf.printf
              "%-13s traced=%d gc.share=%.3f gc.trace_share=%.4f trace.overhead=%+.3f ledger gap=%.4f%s\n"
              w (Results.int_field "traced" report) (metric "gc.share") (metric "gc.trace_share")
              (metric "trace.overhead") gap
              (if gap > ledger_tolerance then " (over the 5% ledger tolerance)" else "");
            Some (w, report)
        | exception e ->
            prerr_endline ("mmbench: " ^ Printexc.to_string e);
            ok := false;
            None)
      (workload_names flags)
  in
  let path = Filename.concat dir "layers.json" in
  write_json path
    (J.Obj
       [
         ("schema", J.Str "mmbench-layers");
         ("version", J.Int 1);
         ("env", Harness.env_json ());
         ("seed", J.Int seed);
         ("workloads", J.Obj reports);
       ]);
  Printf.printf "wrote %s and %d trace file(s)\n" path (List.length reports);
  if not !ok then exit 1

(* --- compare ------------------------------------------------------------- *)

let compare args =
  let a, b =
    match args with [ a; b ] -> (a, b) | _ -> die "compare wants two results files\n%s" usage
  in
  let rules =
    try Compare.rules_of_benchmark (read_json "BENCHMARK.json") @ Compare.workload_rules
    with Failure m -> die "%s" m
  in
  let load path = try Results.of_json (read_json path) with Failure m -> die "%s: %s" path m in
  let rows = Compare.compare_results ~rules (load a) (load b) in
  Compare.print_rows rows;
  if List.exists (fun r -> r.Compare.verdict = Compare.Worse) rows then exit 1

(* --- bench: BENCHMARK.json's command --------------------------------------- *)

let bench args =
  let flags = parse_flags ~known:[ "workload"; "seed"; "seconds"; "trace" ] args in
  Harness.refuse_polluted_env ();
  let required k = match flag flags k with Some v -> v | None -> die "bench needs --%s" k in
  let workload = required "workload" in
  if Workloads.find workload = None then die "unknown workload %S" workload;
  let seed = seed flags and seconds = number flags "seconds" float_of_string_opt 10.0 in
  let traced =
    match required "trace" with "0" -> false | "1" -> true | v -> die "--trace wants 0 or 1, got %S" v
  in
  let registered =
    let doc = read_json "BENCHMARK.json" in
    let catalog = if traced then Catalog.per_layer else Catalog.end_to_end in
    Option.value ~default:[]
      (Option.bind (J.member (if traced then "per_layer" else "end_to_end") doc) J.to_list)
    |> List.map (fun e ->
           let name = Option.value ~default:"" (Option.bind (J.member "name" e) J.to_str) in
           match Catalog.find catalog name with
           | Some m -> (name, m.Catalog.unit)
           | None -> die "BENCHMARK.json registers %S, which the benchmark does not compute" name)
  in
  let attempted, failed, value =
    if traced then
      let report = Harness.trace_workload ~workload ~seed ~seconds ~out_dir:None in
      let metrics = Option.value ~default:J.Null (J.member "metrics" report) in
      ( Results.int_field "attempted" report,
        Results.int_field "failed" report,
        fun name -> Some (Results.float_field name metrics) )
    else
      match
        Harness.run_plan ~workloads:[ workload ] ~seed ~rounds:rounds_per_run
          ~seconds:(seconds /. float_of_int rounds_per_run)
      with
      | [ r ] ->
          ( r.Results.attempted,
            r.Results.failed,
            fun name -> Option.map (fun m -> m.Results.value) (Results.find_metric r name) )
      | _ -> die "no result for %s" workload
  in
  let metrics =
    List.map
      (fun (name, unit) ->
        match value name with
        | Some v when Float.is_finite v -> (name, v, unit)
        | _ -> die "%s: no value for registered metric %s" workload name)
      registered
  in
  List.iter
    (fun (name, v, unit) -> Printf.printf "%-13s %-26s %16.6f %s\n" workload name v unit)
    metrics;
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool (failed = 0 && attempted > 0));
            ("attempted", J.Int attempted);
            ("failed", J.Int failed);
            ( "metrics",
              J.Obj
                (List.map
                   (fun (name, v, unit) -> (name, J.Obj [ ("value", J.Float v); ("unit", J.Str unit) ]))
                   metrics) );
          ]))

(* --- worker: one process of a plan ----------------------------------------- *)

let worker args =
  let flags = parse_flags ~known:[ "mode"; "workload"; "seed"; "seconds"; "out" ] args in
  let seconds = number flags "seconds" float_of_string_opt 0.0 in
  (* A wedged worker must not outlive its plan: SIGALRM ends it. *)
  ignore (Unix.alarm (int_of_float seconds + 120));
  let w =
    match Option.bind (flag flags "workload") Workloads.find with
    | Some w -> w
    | None -> die "worker needs a known --workload"
  in
  let seed = seed flags in
  let report =
    match flag flags "mode" with
    | Some "preflight" -> Worker.preflight w ~seed
    | Some "round" -> Worker.round w ~seed ~seconds
    | Some "trace" -> Worker.trace w ~seed ~seconds ~out_dir:(flag flags "out")
    | _ -> die "worker needs --mode preflight|round|trace"
  in
  print_endline (J.to_string report)

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: args -> run args
  | _ :: "trace" :: args -> trace args
  | _ :: "compare" :: args -> compare args
  | _ :: "bench" :: args -> bench args
  | _ :: "worker" :: args -> worker args
  | _ -> die "%s" usage
