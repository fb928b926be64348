(* faultgen — the fault-injection sweeps as a standalone tool.

     faultgen                         # default: 60 mutations/config, cross-check on
     faultgen --iters 50 --seed 7
     faultgen --no-cross-check        # let corrupt tables reach the collector
     faultgen --out report.json      # machine-readable report (CI artifact)

   Three sweeps share the outcome classification table:

   - Table mutations: the encoded gc-table streams of the benchmark
     programs are mutated (bit flips, byte rewrites, truncations, varint
     padding, byte swaps) across every scheme × packing config, and each
     mutation runs under the precise, generational and incremental
     collectors in turn and is classified.
   - Runtime faults: the running collector is driven through an
     allocation-failure storm, a forced collection every 7th allocation,
     with the post-collection verifier armed. The storm wraps the
     gc-point poll that every allocation calls. The expected outcome is
     "benign": the reference output, verifier clean.
   - Incremental interleaving faults: the incremental collector's slice
     schedule is perturbed in three ways: a slice at every gc-point
     (slice-storm, through the wrapped poll), a starved mark stack of 1
     or 8 entries (mark-spill), and a 50 us wall-clock budget
     (tiny-budget). Each run must still match the STW
     output and instruction count with the tri-color verifier armed.

   Exit 0 iff no case crashed the runtime, hung it, flagged the verifier,
   or (under the cross-check) silently diverged; prints the failing cases
   and exits 1 otherwise. Used by `make fault` / CI. *)

let usage =
  "usage: faultgen [--iters N] [--seed N] [--out FILE.json] [--no-cross-check]\n\
   sweeps: table mutations; runtime alloc-storm; incremental slice-storm, \
   mark-spill, tiny-budget"

let () =
  let iters = ref 60 in
  let seed = ref 0x7a11 in
  let out = ref "" in
  let cross_check = ref true in
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
  let sweeps =
    table_sweeps
    @ Fault.Faultinject.runtime_sweep_all ()
    @ Fault.Faultinject.incremental_sweep_all ()
  in
  let total = List.fold_left (fun a (s : Fault.Faultinject.sweep) -> a + s.iterations) 0 sweeps in
  Printf.printf "%-14s %-28s %6s %s\n" "program" "config" "iters" "outcomes";
  List.iter
    (fun (s : Fault.Faultinject.sweep) ->
      let outcomes =
        s.counts
        |> List.sort (fun (a, _) (b, _) -> compare a b)
        |> List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v)
        |> String.concat " "
      in
      Printf.printf "%-14s %-28s %6d %s\n" s.program s.config s.iterations outcomes)
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
