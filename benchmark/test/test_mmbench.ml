(* Tests of the benchmark's own arithmetic and references: the statistics,
   compare's verdicts and bounds, the reference models against real runs,
   span self times and the ledger, and seed substitution. *)

open Mmb
module J = Telemetry.Json

let close = Alcotest.float 1e-9
let arr = Array.of_list

(* --- statistics ----------------------------------------------------------- *)

let test_median () =
  Alcotest.check close "odd" 3.0 (Stats.median [| 5.0; 1.0; 3.0 |]);
  Alcotest.check close "even" 2.5 (Stats.median [| 4.0; 1.0; 3.0; 2.0 |]);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Stats.median [||]))

let test_percentile () =
  Alcotest.check close "p99 interpolates" 3.97 (Stats.percentile [| 4.0; 1.0; 3.0; 2.0 |] 0.99);
  Alcotest.check close "p100 is the max" 4.0 (Stats.percentile [| 4.0; 1.0; 3.0; 2.0 |] 1.0);
  Alcotest.check close "p0 is the min" 1.0 (Stats.percentile [| 4.0; 1.0; 3.0; 2.0 |] 0.0)

let test_pooled () =
  let rounds = [ [| 1.0; 2.0 |]; [| 3.0; 4.0; 5.0 |] ] in
  (* The pooled median is the run's median, not a median of round medians. *)
  Alcotest.check close "pooled median" 3.0 (Stats.pooled_percentile rounds 0.5);
  Alcotest.check close "median of round medians differs" 2.75
    (Stats.median (arr (List.map Stats.median rounds)))

let test_quartiles () =
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Stats.quartiles (Array.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.check close "q1" 2.75 q1;
  Alcotest.check close "q2" 5.5 q2;
  Alcotest.check close "q3" 8.25 q3;
  (* statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0] *)
  let q1, _, q3 = Stats.quartiles [| 8.0; 1.0; 4.0; 2.0 |] in
  Alcotest.check close "q1 small" 1.25 q1;
  Alcotest.check close "q3 small" 7.0 q3;
  Alcotest.check close "spread" 1.0 (Stats.spread (Array.init 10 (fun i -> float_of_int (i + 1))))

(* --- compare ---------------------------------------------------------------- *)

let metric ?(rounds = [||]) value = Some { Results.name = "m"; value; unit = ""; n = 10; rounds }

let rule ?(better = Catalog.Lower) ?(rel = 0.10) ?(floor = 0.0) () =
  { Compare.metric = "m"; workloads = None; better; rel; floor }

let verdict =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Compare.verdict_name v))
    ( = )

let test_verdicts () =
  let r = rule () in
  let judge a b = Compare.judge r (metric a) (metric b) in
  Alcotest.check verdict "within the bound" Compare.Same (judge 100.0 109.0);
  Alcotest.check verdict "past the bound" Compare.Worse (judge 100.0 111.0);
  Alcotest.check verdict "improved" Compare.Better (judge 100.0 89.0);
  Alcotest.check verdict "missing side" Compare.Unresolved (Compare.judge r (metric 1.0) None);
  let hi = rule ~better:Catalog.Higher () in
  Alcotest.check verdict "higher is better: drop" Compare.Worse
    (Compare.judge hi (metric 100.0) (metric 85.0))

let test_setup_floor () =
  let r = rule ~rel:0.25 ~floor:Compare.setup_floor_s () in
  let judge a b = Compare.judge r (metric a) (metric b) in
  Alcotest.check verdict "3x of 2 ms is under the floor" Compare.Same (judge 0.002 0.006);
  Alcotest.check verdict "past the floor" Compare.Worse (judge 0.002 0.0075);
  Alcotest.check verdict "relative bound above the floor" Compare.Same (judge 1.0 1.2)

let test_exact_and_errors () =
  let exact = rule ~rel:0.0 () in
  Alcotest.check verdict "exact: equal" Compare.Same
    (Compare.judge exact (metric 1405.0) (metric 1405.0));
  Alcotest.check verdict "exact: one byte more" Compare.Worse
    (Compare.judge exact (metric 1405.0) (metric 1406.0));
  Alcotest.check verdict "errors appear" Compare.Worse
    (Compare.judge exact (metric 0.0) (metric 0.01))

let test_noisy () =
  let r = rule () in
  let noisy = [| 80.0; 100.0; 120.0; 90.0; 110.0 |] in
  Alcotest.check verdict "spread beyond the bound" Compare.Unresolved
    (Compare.judge r (metric ~rounds:noisy 100.0) (metric ~rounds:noisy 120.0));
  Alcotest.check verdict "every round worse" Compare.Worse
    (Compare.judge r (metric ~rounds:noisy 100.0)
       (metric ~rounds:(Array.map (fun x -> x +. 60.0) noisy) 160.0))

let test_rules_of_benchmark () =
  let doc =
    J.parse
      {|{"end_to_end": [
          {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
          {"name": "exec_ms_p10", "unit": "ms", "better": "lower", "bound": 0.1}]}|}
  in
  match Compare.rules_of_benchmark doc with
  | [ setup; exec ] ->
      Alcotest.check close "setup bound" 0.25 setup.Compare.rel;
      Alcotest.check close "setup floor" Compare.setup_floor_s setup.Compare.floor;
      Alcotest.check close "exec bound" 0.1 exec.Compare.rel;
      Alcotest.check close "exec floor" 0.0 exec.Compare.floor
  | _ -> Alcotest.fail "two rules expected"

(* BENCHMARK.json registers only metrics the benchmark computes, and only
   its workloads. *)
let test_benchmark_json () =
  let doc = J.parse (In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all) in
  let entries k = Option.value ~default:[] (Option.bind (J.member k doc) J.to_list) in
  let str k e = Option.value ~default:"" (Option.bind (J.member k e) J.to_str) in
  let check_list key catalog =
    List.iter
      (fun e ->
        let name = str "name" e in
        if Catalog.find catalog name = None then
          Alcotest.failf "%s: %s is not a metric the benchmark computes" key name)
      (entries key)
  in
  check_list "end_to_end" Catalog.end_to_end;
  check_list "per_layer" Catalog.per_layer;
  Alcotest.(check (list string))
    "workloads" Workloads.names
    (List.map (str "name") (entries "workloads"))

(* --- reference models against real runs -------------------------------------- *)

let run ?(collector = Hooks.Cheney) ~heap_words src =
  Hooks.configure ~workers:1 ~verify:true;
  let image = Compile_layers.compile ~optimize:true ~heap_words src in
  let st = Hooks.create image in
  Hooks.install st collector ~placement:None;
  Hooks.run st;
  Hooks.output st

let test_destroy_model () =
  let src = Programs.Destroy_src.make ~branch:3 ~depth:3 ~replace_depth:1 ~iterations:7 in
  Alcotest.(check string)
    "destroy" (Reference.destroy ~branch:3 ~depth:3 ~replace_depth:1 ~iterations:7)
    (run ~heap_words:400 src);
  let src =
    Programs.Destroy_src.make_ballast ~ballast:50 ~branch:2 ~depth:4 ~replace_depth:2
      ~iterations:9
  in
  let expected = Reference.destroy ~branch:2 ~depth:4 ~replace_depth:2 ~iterations:9 in
  Alcotest.(check string) "ballast, generational" expected
    (run ~collector:(Hooks.Nursery 100) ~heap_words:1200 src);
  Alcotest.(check string) "ballast, incremental" expected
    (run ~collector:(Hooks.Incremental 0) ~heap_words:1200 src)

let test_takl_model () =
  let src = Programs.Takl_src.make ~n1:8 ~n2:5 ~n3:2 ~repeats:3 ~ballast:7 in
  Alcotest.(check string)
    "takl" (Reference.takl ~n1:8 ~n2:5 ~n3:2 ~repeats:3 ~ballast:7)
    (run ~heap_words:200 src)

let test_wide_heap_model () =
  let src = Workloads.wide_heap_source ~branch:3 ~depth:3 ~arrays:12 ~array_words:16 in
  Alcotest.(check string)
    "wide-heap" (Reference.wide_heap ~branch:3 ~depth:3 ~arrays:12)
    (run ~heap_words:400 src)

(* The layer-by-layer compile builds the image [Driver.Compile.compile] builds. *)
let test_compile_layers () =
  List.iter
    (fun (name, src, _) ->
      List.iter
        (fun optimize ->
          let options = Compile_layers.options ~optimize ~heap_words:65536 in
          let ours = Compile_layers.layered ~options src in
          let theirs = Driver.Compile.compile ~options src in
          Alcotest.(check bool) (name ^ " code") true (ours.Vm.Image.code = theirs.Vm.Image.code);
          Alcotest.(check int) (name ^ " tables")
            (Compile_layers.table_bytes theirs)
            (Compile_layers.table_bytes ours))
        [ false; true ])
    Workloads.corpus

(* --- spans and the ledger ------------------------------------------------------ *)

let span name start stop parent =
  { Spans.name; start = Int64.of_int start; stop = Int64.of_int stop; parent; exec = 0 }

(* exec [0,100] > vm.create [0,10], vm.run [10,90] > gc.call [20,30], [40,45] *)
let tree =
  [|
    span "exec" 0 100 (-1);
    span "vm.create" 0 10 0;
    span "vm.run" 10 90 0;
    span "gc.call" 20 30 2;
    span "gc.call" 40 45 2;
  |]

let test_self_times () =
  let st = Spans.self_times tree in
  let self name =
    match List.find_opt (fun (n, _, _, _) -> n = name) st with
    | Some (_, count, total, self) -> (count, Int64.to_int total, Int64.to_int self)
    | None -> Alcotest.failf "no %s" name
  in
  Alcotest.(check (triple int int int)) "exec" (1, 100, 10) (self "exec");
  Alcotest.(check (triple int int int)) "vm.run" (1, 80, 65) (self "vm.run");
  Alcotest.(check (triple int int int)) "gc.call" (2, 15, 15) (self "gc.call");
  Alcotest.(check int) "self times sum to the root" 100
    (List.fold_left (fun acc (_, _, _, s) -> acc + Int64.to_int s) 0 st);
  Alcotest.(check int) "total by name" 15 (Int64.to_int (Spans.total tree ~exec:0 "gc.call"))

let test_chrome () =
  let events =
    match J.member "traceEvents" (Spans.to_chrome tree) with
    | Some (J.List evs) -> evs
    | _ -> Alcotest.fail "no traceEvents"
  in
  let phases =
    List.map
      (fun e ->
        Option.value ~default:"" (Option.bind (J.member "ph" e) J.to_str)
        ^ Option.value ~default:"" (Option.bind (J.member "name" e) J.to_str))
      events
  in
  Alcotest.(check (list string))
    "balanced, nested B/E"
    [
      "Bexec"; "Bvm.create"; "Evm.create"; "Bvm.run"; "Bgc.call"; "Egc.call"; "Bgc.call";
      "Egc.call"; "Evm.run"; "Eexec";
    ]
    phases

let test_recorder () =
  Spans.clear ();
  Spans.enabled := true;
  Spans.exec_id := 3;
  Spans.time "outer" (fun () ->
      Spans.time "inner" (fun () -> ());
      Spans.record "pause" 5L 6L);
  Spans.enabled := false;
  Spans.time "ignored" (fun () -> ());
  let spans = Spans.recorded () in
  Alcotest.(check (list string)) "names" [ "outer"; "inner"; "pause" ]
    (List.map (fun s -> s.Spans.name) (Array.to_list spans));
  Alcotest.(check (list int)) "parents" [ -1; 0; 0 ]
    (List.map (fun s -> s.Spans.parent) (Array.to_list spans));
  Alcotest.(check bool) "closed" true (Array.for_all (fun s -> s.Spans.stop >= s.Spans.start) spans);
  Spans.clear ()

let test_ledger () =
  Alcotest.check close "5% under" 0.05 (Spans.ledger_gap ~inside:95.0 ~outside:100.0);
  Alcotest.check close "over counts too" 0.02 (Spans.ledger_gap ~inside:102.0 ~outside:100.0);
  Alcotest.check close "nothing outside" 0.0 (Spans.ledger_gap ~inside:0.0 ~outside:0.0)

(* --- seeds ----------------------------------------------------------------------- *)

let test_seed () =
  let src = Programs.Destroy_src.make ~branch:2 ~depth:2 ~replace_depth:1 ~iterations:1 in
  Alcotest.(check string) "default seed is the identity" src (Workloads.with_seed ~seed:12345 src);
  let seeded = Workloads.with_seed ~seed:7 src in
  Alcotest.(check int) "replaced" 1 (List.length (Workloads.occurrences ~sub:"seed := 7;" seeded));
  Alcotest.(check int) "reduced mod 2^30" 1
    (List.length
       (Workloads.occurrences ~sub:"seed := 1073741823;" (Workloads.with_seed ~seed:(-1) src)));
  let fails src =
    match Workloads.with_seed ~seed:1 src with
    | _ -> false
    | exception Failure _ -> true
  in
  Alcotest.(check bool) "missing literal" true (fails Programs.Takl_src.src);
  Alcotest.(check bool) "two literals" true (fails (src ^ src))

let () =
  Alcotest.run "mmbench"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "pooled percentiles" `Quick test_pooled;
          Alcotest.test_case "quartiles match python" `Quick test_quartiles;
        ] );
      ( "compare",
        [
          Alcotest.test_case "verdicts" `Quick test_verdicts;
          Alcotest.test_case "setup floor" `Quick test_setup_floor;
          Alcotest.test_case "exact bounds and errors" `Quick test_exact_and_errors;
          Alcotest.test_case "noisy rounds" `Quick test_noisy;
          Alcotest.test_case "bounds from BENCHMARK.json" `Quick test_rules_of_benchmark;
          Alcotest.test_case "BENCHMARK.json matches the catalog" `Quick test_benchmark_json;
        ] );
      ( "references",
        [
          Alcotest.test_case "destroy model" `Quick test_destroy_model;
          Alcotest.test_case "takl model" `Quick test_takl_model;
          Alcotest.test_case "wide-heap model" `Quick test_wide_heap_model;
          Alcotest.test_case "layered compile = driver compile" `Quick test_compile_layers;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self times" `Quick test_self_times;
          Alcotest.test_case "chrome export" `Quick test_chrome;
          Alcotest.test_case "recorder" `Quick test_recorder;
          Alcotest.test_case "ledger gap" `Quick test_ledger;
        ] );
      ("seeds", [ Alcotest.test_case "substitution" `Quick test_seed ]);
    ]
