(* faultgen — the fault-injection sweeps as a standalone tool.

     faultgen                         # default: 60 mutations/config, cross-check on
     faultgen --iters 50 --seed 7
     faultgen --no-cross-check        # let corrupt tables reach the collector
     faultgen --no-runtime            # skip the runtime (allocation-storm) sweep
     faultgen --out report.json      # machine-readable report (CI artifact)

   Three sweeps share the outcome classification table:

   - Table mutations: the encoded gc-table streams of the benchmark
     programs are mutated (bit flips, byte rewrites, truncations, varint
     padding, byte swaps) across every scheme × packing config and each
     run is classified.
   - Runtime faults (skip with --no-runtime): the running collector is
     driven through an allocation-failure storm, a forced collection
     every 7th allocation, with the post-collection verifier armed. The
     expected outcome is "benign": the reference output, verifier
     clean.
   - Incremental interleaving faults (skip with --no-incremental): the
     incremental collector's slice schedule is perturbed — a slice at
     every gc-point, a barrier storm, a starved mark stack, a 50 us
     wall-clock budget — and each run must still match the STW output
     and instruction count with the tri-color verifier armed.

   Exit 0 iff no case crashed the runtime, hung it, flagged the verifier,
   or (under the cross-check) silently diverged; prints the failing cases
   and exits 1 otherwise. Used by `make fault` / CI. *)

let usage =
  "usage: faultgen [--iters N] [--seed N] [--out FILE.json] [--no-cross-check] \
   [--no-runtime] [--no-incremental]"

let () =
  let iters = ref 60 in
  let seed = ref 0x7a11 in
  let out = ref "" in
  let cross_check = ref true in
  let runtime = ref true in
  let incremental = ref true in
  let rec parse = function
    | [] -> ()
    | "--iters" :: v :: rest ->
        iters := int_of_string v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        parse rest
    | "--out" :: v :: rest ->
        out := v;
        parse rest
    | "--no-cross-check" :: rest ->
        cross_check := false;
        parse rest
    | "--no-runtime" :: rest ->
        runtime := false;
        parse rest
    | "--no-incremental" :: rest ->
        incremental := false;
        parse rest
    | arg :: _ ->
        prerr_endline ("faultgen: unknown argument " ^ arg);
        prerr_endline usage;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let table_sweeps =
    Fault.Faultinject.sweep_all ~cross_check:!cross_check ~seed:!seed
      ~iterations_per_config:!iters ()
  in
  let runtime_sweeps =
    if !runtime then Fault.Faultinject.runtime_sweep_all () else []
  in
  let incremental_sweeps =
    if !incremental then Fault.Faultinject.incremental_sweep_all () else []
  in
  let sweeps = table_sweeps @ runtime_sweeps @ incremental_sweeps in
  let total = List.fold_left (fun a (s : Fault.Faultinject.sweep) -> a + s.iterations) 0 sweeps in
  Printf.printf "%-14s %-18s %6s %s\n" "program" "config" "iters" "outcomes";
  List.iter
    (fun (s : Fault.Faultinject.sweep) ->
      let outcomes =
        s.counts
        |> List.sort (fun (a, _) (b, _) -> compare a b)
        |> List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v)
        |> String.concat " "
      in
      Printf.printf "%-14s %-18s %6d %s\n" s.program s.config s.iterations outcomes)
    sweeps;
  let failures =
    List.concat_map
      (fun (s : Fault.Faultinject.sweep) ->
        List.map (fun c -> (s.program, s.config, c)) s.failures)
      sweeps
  in
  Printf.printf "total: %d cases, %d failure(s)\n" total (List.length failures);
  List.iter
    (fun (prog, cfg, (c : Fault.Faultinject.case)) ->
      Printf.printf "FAILURE %s/%s %s: %s%s\n" prog cfg c.mutation
        (Fault.Faultinject.outcome_name c.outcome)
        (match c.outcome with Fault.Faultinject.Crashed e -> " (" ^ e ^ ")" | _ -> ""))
    failures;
  if !out <> "" then begin
    let oc = open_out !out in
    output_string oc
      (Telemetry.Json.to_string (Fault.Faultinject.json_report ~cross_check:!cross_check sweeps));
    output_char oc '\n';
    close_out oc
  end;
  exit (if failures = [] then 0 else 1)
