(** End-to-end metrics of one workload, aggregated from its preflight and
    its rounds, and the results file that holds them. *)

module J = Telemetry.Json

type metric = {
  name : string;
  value : float;
  unit : string;
  n : int; (* samples behind the value *)
  rounds : float array; (* the same statistic per round, for spreads *)
}

type workload = {
  workload : string;
  attempted : int;
  failed : int;
  errors : string list;
  metrics : metric list;
}

let int_field k o = match J.member k o with Some (J.Int i) -> i | _ -> 0

let float_field k o =
  match J.member k o with Some (J.Int i) -> float_of_int i | Some (J.Float f) -> f | _ -> Float.nan

let floats_field k o =
  match J.member k o with
  | Some (J.List xs) ->
      Array.of_list
        (List.map (function J.Int i -> float_of_int i | J.Float f -> f | _ -> Float.nan) xs)
  | _ -> [||]

let strings_field k o =
  match J.member k o with
  | Some (J.List xs) -> List.filter_map J.to_str xs
  | _ -> []

let unit_of name =
  match Catalog.find Catalog.end_to_end name with Some m -> m.Catalog.unit | None -> ""

let metric name ~value ~n ~rounds = { name; value; unit = unit_of name; n; rounds }

(** Pool the rounds' samples. [worker_failures] are workers that died
    without reporting; each counts as one failed attempt. *)
let aggregate ~workload ~(reports : J.t list) ~(rounds : J.t list) ~worker_failures =
  let per_round f = Array.of_list (List.map f rounds) in
  let samples key scale =
    List.map (fun r -> Array.map (fun v -> v /. scale) (floats_field key r)) rounds
  in
  let exec = samples "exec_ns" 1e6 and pauses = samples "pause_ns" 1e3 in
  let count xs = List.fold_left (fun n a -> n + Array.length a) 0 xs in
  let pooled xs p = Stats.pooled_percentile xs p in
  let per_round_stat xs f = Array.of_list (List.map f (List.filter (fun a -> Array.length a > 0) xs)) in
  let from_rounds name f =
    let v = per_round f in
    metric name ~value:(Stats.median v) ~n:(Array.length v) ~rounds:v
  in
  let attempted = List.fold_left (fun n r -> n + int_field "attempted" r) 0 reports + worker_failures in
  let failed = List.fold_left (fun n r -> n + int_field "failed" r) 0 reports + worker_failures in
  let timing =
    if rounds = [] then []
    else
      (* Set-up: the round that drew the quietest host placement (see
         [Harness.idle_between_rounds]). The median over rounds would move
         with the share of contended placements a run happens to draw. *)
      let setup = per_round (fun r -> float_field "setup_ns" r /. 1e9) in
      [
        metric "setup_s"
          ~value:(Array.fold_left Float.min infinity setup)
          ~n:(Array.length setup) ~rounds:setup;
        metric "exec_ms_p10" ~value:(pooled exec 0.1) ~n:(count exec)
          ~rounds:(per_round_stat exec (fun a -> Stats.percentile a 0.1));
        metric "exec_ms_p50" ~value:(pooled exec 0.5) ~n:(count exec)
          ~rounds:(per_round_stat exec Stats.median);
        metric "exec_ms_p90" ~value:(pooled exec 0.9) ~n:(count exec)
          ~rounds:(per_round_stat exec (fun a -> Stats.percentile a 0.9));
      ]
      @ (if count pauses = 0 then []
         else
           [
             metric "pause_us_p50" ~value:(pooled pauses 0.5) ~n:(count pauses)
               ~rounds:(per_round_stat pauses Stats.median);
             metric "pause_us_p99" ~value:(pooled pauses 0.99) ~n:(count pauses)
               ~rounds:(per_round_stat pauses (fun a -> Stats.percentile a 0.99));
             metric "pause_us_max" ~value:(pooled pauses 1.0) ~n:(count pauses)
               ~rounds:(per_round_stat pauses (fun a -> Stats.percentile a 1.0));
           ])
      @ [
          from_rounds "code_bytes" (float_field "code_bytes");
          from_rounds "table_bytes" (float_field "table_bytes");
          from_rounds "peak_rss_mb" (fun r -> float_field "peak_rss_kb" r /. 1024.0);
        ]
  in
  let error_rate =
    metric "error_rate"
      ~value:(if attempted = 0 then 1.0 else float_of_int failed /. float_of_int attempted)
      ~n:attempted ~rounds:[||]
  in
  {
    workload;
    attempted;
    failed;
    errors = List.concat_map (strings_field "errors") reports;
    metrics = timing @ [ error_rate ];
  }

let find_metric w name = List.find_opt (fun m -> m.name = name) w.metrics

(* --- the results file ---------------------------------------------------- *)

let metric_json m =
  J.Obj
    [
      ("name", J.Str m.name);
      ("value", J.Float m.value);
      ("unit", J.Str m.unit);
      ("n", J.Int m.n);
      ("rounds", J.List (Array.to_list (Array.map (fun v -> J.Float v) m.rounds)));
    ]

let to_json ~env ~config (ws : workload list) =
  J.Obj
    [
      ("schema", J.Str "mmbench-results");
      ("version", J.Int 1);
      ("env", env);
      ("config", config);
      ( "workloads",
        J.List
          (List.map
             (fun w ->
               J.Obj
                 [
                   ("name", J.Str w.workload);
                   ("attempted", J.Int w.attempted);
                   ("failed", J.Int w.failed);
                   ("errors", J.List (List.map (fun e -> J.Str e) w.errors));
                   ("metrics", J.List (List.map metric_json w.metrics));
                 ])
             ws) );
    ]

let of_json (doc : J.t) : workload list =
  (match J.member "schema" doc with
  | Some (J.Str "mmbench-results") -> ()
  | _ -> failwith "not an mmbench results file");
  let list k o = Option.value ~default:[] (Option.bind (J.member k o) J.to_list) in
  List.map
    (fun w ->
      {
        workload = Option.value ~default:"" (Option.bind (J.member "name" w) J.to_str);
        attempted = int_field "attempted" w;
        failed = int_field "failed" w;
        errors = strings_field "errors" w;
        metrics =
          List.map
            (fun m ->
              {
                name = Option.value ~default:"" (Option.bind (J.member "name" m) J.to_str);
                value = float_field "value" m;
                unit = Option.value ~default:"" (Option.bind (J.member "unit" m) J.to_str);
                n = int_field "n" m;
                rounds = floats_field "rounds" m;
              })
            (list "metrics" w);
      })
    (list "workloads" doc)

let print_table (ws : workload list) =
  Printf.printf "%-13s %-14s %16s %-6s %8s\n" "workload" "metric" "value" "unit" "samples";
  List.iter
    (fun w ->
      List.iter
        (fun m -> Printf.printf "%-13s %-14s %16.6f %-6s %8d\n" w.workload m.name m.value m.unit m.n)
        w.metrics;
      List.iter (fun e -> Printf.printf "%-13s error: %s\n" w.workload e) w.errors)
    ws
