(** [mmbench compare A.json B.json]: B against A, metric by metric and
    workload by workload, under the bounds the benchmark fixes. *)

module J = Telemetry.Json

type rule = {
  metric : string;
  workloads : string list option; (* [None]: every workload *)
  better : Catalog.better;
  rel : float; (* allowed worsening, as a share of A's value *)
  floor : float; (* ... but never less than this absolute amount *)
}

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(** Set-up takes milliseconds on the small workloads, where a tenth is
    below the clock's jitter; a change under this much never counts. *)
let setup_floor_s = 0.005

(** The end-to-end metrics [BENCHMARK.json] registers, with its bounds;
    they apply to every workload. Which direction is better comes from
    {!Catalog}. *)
let rules_of_benchmark (doc : J.t) =
  let list k = Option.value ~default:[] (Option.bind (J.member k doc) J.to_list) in
  List.map
    (fun e ->
      let metric = Option.value ~default:"" (Option.bind (J.member "name" e) J.to_str) in
      match Catalog.find Catalog.end_to_end metric with
      | None -> failwith ("BENCHMARK.json registers an unknown metric " ^ metric)
      | Some m ->
          {
            metric;
            workloads = None;
            better = m.Catalog.better;
            rel = Results.float_field "bound" e;
            floor = (if metric = "setup_s" then setup_floor_s else 0.0);
          })
    (list "end_to_end")

(** Registered metrics [BENCHMARK.json] cannot express, all exact: code
    and table size of the corpus, and the error rate (none allowed).
    Pause percentiles are reported but not registered: they did not
    repeat within a tenth between runs (README.md has the spreads). *)
let workload_rules =
  let r ?workloads metric =
    { metric; workloads; better = Catalog.Lower; rel = 0.0; floor = 0.0 }
  in
  [
    r ~workloads:[ "compile" ] "code_bytes";
    r ~workloads:[ "compile" ] "table_bytes";
    r "error_rate";
  ]

let applies rule workload =
  match rule.workloads with None -> true | Some ws -> List.mem workload ws

(** B against A. Positive worsening beyond [max (rel * A) floor] is worse,
    the mirror image better. When either side is noisier than [rel] — the
    quartile spread of its per-round values, shrunk by the square root of
    the number of rounds for a value taken over all of them — the
    difference is unresolved unless every round of B beats (or loses to)
    every round of A. *)
let judge rule (a : Results.metric option) (b : Results.metric option) =
  match (a, b) with
  | Some a, Some b
    when a.Results.n > 0 && b.Results.n > 0
         && Float.is_finite a.Results.value
         && Float.is_finite b.Results.value ->
      let worsening x y =
        match rule.better with Catalog.Lower -> y -. x | Catalog.Higher -> x -. y
      in
      let d = worsening a.Results.value b.Results.value in
      let allowed = Float.max (rule.rel *. Float.abs a.Results.value) rule.floor in
      let noisy (m : Results.metric) =
        let n = Array.length m.Results.rounds in
        n >= 2 && Stats.spread m.Results.rounds /. sqrt (float_of_int n) > rule.rel
      in
      let every p =
        Array.for_all
          (fun y -> Array.for_all (fun x -> p (worsening x y)) a.Results.rounds)
          b.Results.rounds
      in
      if rule.rel > 0.0 && (noisy a || noisy b) then
        if d < -.allowed && every (fun w -> w < 0.0) then Better
        else if d > allowed && every (fun w -> w > 0.0) then Worse
        else Unresolved
      else if d > allowed then Worse
      else if d < -.allowed then Better
      else Same
  | _ -> Unresolved

type row = {
  workload : string;
  rule : rule;
  a : Results.metric option;
  b : Results.metric option;
  verdict : verdict;
}

let compare_results ~rules (a : Results.workload list) (b : Results.workload list) =
  let names = List.sort_uniq compare (List.map (fun w -> w.Results.workload) (a @ b)) in
  let find ws name metric =
    Option.bind
      (List.find_opt (fun w -> w.Results.workload = name) ws)
      (fun w -> Results.find_metric w metric)
  in
  List.concat_map
    (fun workload ->
      List.filter_map
        (fun rule ->
          if not (applies rule workload) then None
          else
            let a = find a workload rule.metric and b = find b workload rule.metric in
            Some { workload; rule; a; b; verdict = judge rule a b })
        rules)
    names

let print_rows rows =
  let v = function Some m -> Printf.sprintf "%.6g" m.Results.value | None -> "-" in
  Printf.printf "%-13s %-14s %14s %14s %8s  %s\n" "workload" "metric" "A" "B" "change" "verdict";
  List.iter
    (fun r ->
      let change =
        match (r.a, r.b) with
        | Some a, Some b when a.Results.value <> 0.0 ->
            Printf.sprintf "%+.1f%%" (100.0 *. (b.Results.value -. a.Results.value) /. a.Results.value)
        | _ -> "-"
      in
      Printf.printf "%-13s %-14s %14s %14s %8s  %s\n" r.workload r.rule.metric (v r.a) (v r.b) change
        (verdict_name r.verdict))
    rows
