(* Telemetry layer tests: metric arithmetic, span nesting invariants,
   Chrome-trace JSON well-formedness, and a driver-level end-to-end check
   that a collecting run reports all four pause phases with balanced
   derived-value work. *)

module T = Telemetry

let check = Alcotest.check

(* Every test starts from a clean, enabled telemetry state and leaves the
   layer disabled (the other suites in this binary assume it off). *)
let fresh f () =
  T.Metrics.reset ();
  T.Trace.clear ();
  T.Timer.clear ();
  T.Log.reset_once ();
  T.Control.enable ();
  Fun.protect ~finally:T.Control.disable f

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_counters () =
  let c = T.Metrics.counter "test.counter" in
  T.Metrics.incr c;
  T.Metrics.incr ~by:41 c;
  check Alcotest.int "counter accumulates" 42 (T.Metrics.value c);
  check Alcotest.int "lookup by name" 42 (T.Metrics.counter_value "test.counter");
  (* The same name returns the same handle. *)
  T.Metrics.incr (T.Metrics.counter "test.counter");
  check Alcotest.int "single registry entry" 43 (T.Metrics.value c);
  (* Disabled increments are dropped. *)
  T.Control.disable ();
  T.Metrics.incr ~by:100 c;
  T.Control.enable ();
  check Alcotest.int "disabled incr is a no-op" 43 (T.Metrics.value c);
  (* Reset zeroes but keeps the handle valid. *)
  T.Metrics.reset ();
  check Alcotest.int "reset zeroes" 0 (T.Metrics.value c);
  T.Metrics.incr c;
  check Alcotest.int "handle survives reset" 1 (T.Metrics.value c)

let test_gauges () =
  let g = T.Metrics.gauge "test.gauge" in
  T.Metrics.set g 2.5;
  check (Alcotest.float 1e-9) "gauge set" 2.5 (T.Metrics.gauge_value "test.gauge");
  T.Metrics.set g 1.0;
  check (Alcotest.float 1e-9) "gauge overwrites" 1.0 (T.Metrics.gauge_value "test.gauge")

let test_histograms () =
  let h = T.Metrics.histogram "test.hist" in
  List.iter (fun v -> T.Metrics.observe h v) [ 4.0; 1.0; 7.0; 2.0 ];
  check Alcotest.int "count" 4 h.T.Metrics.h_count;
  check (Alcotest.float 1e-9) "sum" 14.0 h.T.Metrics.h_sum;
  check (Alcotest.float 1e-9) "min" 1.0 h.T.Metrics.h_min;
  check (Alcotest.float 1e-9) "max" 7.0 h.T.Metrics.h_max;
  check (Alcotest.float 1e-9) "mean" 3.5 (T.Metrics.mean h);
  check
    (Alcotest.list (Alcotest.float 1e-9))
    "samples retained in order" [ 4.0; 1.0; 7.0; 2.0 ]
    (Array.to_list (T.Metrics.samples h));
  T.Metrics.reset ();
  check Alcotest.int "reset clears samples" 0 (Array.length (T.Metrics.samples h))

let test_reservoir () =
  let h = T.Metrics.histogram "test.reservoir" in
  let n = 100_000 in
  for i = 0 to n - 1 do
    T.Metrics.observe h (float_of_int i)
  done;
  check Alcotest.int "count keeps the full stream" n h.T.Metrics.h_count;
  let s = T.Metrics.samples h in
  check Alcotest.int "reservoir capped" 65536 (Array.length s);
  (* Algorithm R keeps late arrivals: a ramp must retain samples past the
     cap, where a head-truncating cap would keep only the first 65536. *)
  check Alcotest.bool "late samples retained" true
    (Array.exists (fun v -> v >= 65536.0) s);
  (* And the retained set is roughly unbiased: the mean of a uniform
     subsample of a 0..n ramp sits near n/2, not near cap/2. *)
  let mean = Array.fold_left ( +. ) 0.0 s /. float_of_int (Array.length s) in
  check Alcotest.bool "sample mean near stream mean" true
    (mean > 0.4 *. float_of_int n && mean < 0.6 *. float_of_int n);
  (* Equal-length streams replace identical indices (shared deterministic
     seed), so parallel per-event histograms stay row-aligned past the cap. *)
  let h2 = T.Metrics.histogram "test.reservoir2" in
  for i = 0 to n - 1 do
    T.Metrics.observe h2 (float_of_int i)
  done;
  check Alcotest.bool "parallel histograms stay aligned" true
    (T.Metrics.samples h = T.Metrics.samples h2)

let test_percentiles () =
  let h = T.Metrics.histogram "test.pct" in
  for i = 1 to 1000 do
    T.Metrics.observe h (float_of_int i)
  done;
  (* Bucket quantiles overestimate by at most one sub-bucket (25% relative
     error at 4 sub-buckets per octave), clamped to the observed range. *)
  let p50 = T.Metrics.percentile h 0.50 in
  check Alcotest.bool "p50 within bucket error" true (p50 >= 500.0 && p50 <= 625.0);
  let p90 = T.Metrics.percentile h 0.90 in
  check Alcotest.bool "p90 within bucket error" true (p90 >= 900.0 && p90 <= 1125.0);
  check (Alcotest.float 1e-9) "p100 is exactly the max" 1000.0
    (T.Metrics.percentile h 1.0);
  let buckets = T.Metrics.nonzero_buckets h in
  check Alcotest.int "bucket counts sum to count" h.T.Metrics.h_count
    (List.fold_left (fun acc (_, _, n) -> acc + n) 0 buckets);
  check Alcotest.bool "buckets are ordered and disjoint" true
    (fst
       (List.fold_left
          (fun (ok, prev) (lo, hi, _) -> (ok && lo >= prev && hi > lo, hi))
          (true, 0.0) buckets));
  let e = T.Metrics.histogram "test.pct.empty" in
  check (Alcotest.float 1e-9) "empty histogram percentile" 0.0
    (T.Metrics.percentile e 0.5)

(* ------------------------------------------------------------------ *)
(* Trace: nesting invariants                                           *)
(* ------------------------------------------------------------------ *)

(* Fold over the recorded stream checking that every End closes the most
   recent open Begin; returns the maximum depth seen. *)
let check_balance events =
  let max_depth = ref 0 in
  let final =
    List.fold_left
      (fun stack (ev : T.Trace.event) ->
        match ev.T.Trace.ph with
        | T.Trace.B ->
            let stack = ev.T.Trace.name :: stack in
            max_depth := max !max_depth (List.length stack);
            stack
        | T.Trace.E -> (
            match stack with
            | top :: rest ->
                check Alcotest.string "end closes innermost begin" top ev.T.Trace.name;
                rest
            | [] -> Alcotest.fail "end event with no open span")
        | T.Trace.I -> stack)
      [] events
  in
  check Alcotest.int "all spans closed" 0 (List.length final);
  !max_depth

let test_span_nesting () =
  T.Trace.span "outer" (fun () ->
      T.Trace.span "inner1" (fun () -> ());
      T.Trace.span "inner2" (fun () -> T.Trace.instant "tick"));
  let max_depth = check_balance (T.Trace.recorded ()) in
  check Alcotest.int "nesting depth" 2 max_depth;
  check Alcotest.int "nothing left open" 0 (T.Trace.depth ());
  (* 3 begins + 3 ends + 1 instant *)
  check Alcotest.int "event count" 7 (List.length (T.Trace.recorded ()))

let test_span_exception_safety () =
  (try T.Trace.span "boom" (fun () -> failwith "x") with Failure _ -> ());
  check Alcotest.int "span closed on exception" 0 (T.Trace.depth ());
  ignore (check_balance (T.Trace.recorded ()))

let test_unmatched_end_ignored () =
  T.Trace.end_span ();
  check Alcotest.int "stray end recorded nothing" 0 (List.length (T.Trace.recorded ()));
  T.Trace.begin_span "a";
  T.Trace.end_span ();
  T.Trace.end_span ();
  ignore (check_balance (T.Trace.recorded ()))

(* ------------------------------------------------------------------ *)
(* Chrome trace export                                                 *)
(* ------------------------------------------------------------------ *)

let get_exn = function Some v -> v | None -> Alcotest.fail "missing JSON member"

let test_chrome_json_well_formed () =
  T.Trace.span ~cat:"t" "outer" (fun () ->
      T.Trace.span ~cat:"t" "inner \"quoted\"\n" (fun () -> ()));
  T.Trace.begin_span "left-open";
  let s = T.Trace.to_chrome_string () in
  T.Trace.end_span ();
  let j = T.Json.parse s in
  let events = get_exn (T.Json.to_list (get_exn (T.Json.member "traceEvents" j))) in
  (* B and E counts balance even though a span was open at export time. *)
  let count ph =
    List.length
      (List.filter
         (fun e -> T.Json.member "ph" e = Some (T.Json.Str ph))
         events)
  in
  check Alcotest.int "B/E balanced" (count "B") (count "E");
  check Alcotest.bool "has metadata event" true (count "M" >= 1);
  (* Timestamps are non-decreasing within the stream. *)
  let ts =
    List.filter_map
      (fun e ->
        match T.Json.member "ts" e with
        | Some (T.Json.Float f) -> Some f
        | Some (T.Json.Int i) -> Some (float_of_int i)
        | _ -> None)
      events
  in
  check Alcotest.bool "timestamps monotonic" true
    (fst
       (List.fold_left (fun (ok, prev) t -> (ok && t >= prev, t)) (true, neg_infinity) ts))

let test_json_roundtrip () =
  let v =
    T.Json.Obj
      [
        ("s", T.Json.Str "a\"b\\c\nd\te\r\x01");
        ("i", T.Json.Int (-42));
        ("f", T.Json.Float 1.5);
        ("l", T.Json.List [ T.Json.Null; T.Json.Bool true; T.Json.Bool false ]);
        ("o", T.Json.Obj [ ("nested", T.Json.Int 1) ]);
        ("e", T.Json.List []);
        ("eo", T.Json.Obj []);
      ]
  in
  check Alcotest.bool "roundtrip" true (T.Json.parse (T.Json.to_string v) = v);
  List.iter
    (fun bad ->
      match T.Json.parse bad with
      | exception T.Json.Parse_error _ -> ()
      | _ -> Alcotest.fail ("accepted malformed input " ^ bad))
    [ "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated" ]

(* ------------------------------------------------------------------ *)
(* Timer                                                               *)
(* ------------------------------------------------------------------ *)

let test_timer () =
  ignore (T.Timer.time "t.pass" (fun () -> 1 + 1));
  ignore (T.Timer.time "t.pass" (fun () -> ()));
  ignore (T.Timer.time "t.other" (fun () -> ()));
  (match T.Timer.entries () with
  | [ ("t.pass", 2, _); ("t.other", 1, _) ] -> ()
  | e ->
      Alcotest.fail
        (Printf.sprintf "unexpected timer entries (%d)" (List.length e)));
  check Alcotest.bool "timer spans recorded in trace" true
    (List.exists
       (fun (ev : T.Trace.event) -> ev.T.Trace.name = "t.pass")
       (T.Trace.recorded ()))

(* ------------------------------------------------------------------ *)
(* End to end: a collecting run reports all four pause phases          *)
(* ------------------------------------------------------------------ *)

(* The names of the spans directly inside each span called [parent], in
   order, one list per occurrence. *)
let children_of parent events =
  let found, _ =
    List.fold_left
      (fun (found, stack) (ev : T.Trace.event) ->
        match (ev.T.Trace.ph, stack) with
        | T.Trace.B, _ ->
            (match stack with (_, kids) :: _ -> kids := ev.T.Trace.name :: !kids | [] -> ());
            (found, (ev.T.Trace.name, ref []) :: stack)
        | T.Trace.E, (name, kids) :: rest ->
            ((if name = parent then List.rev !kids :: found else found), rest)
        | _ -> (found, stack))
      ([], []) events
  in
  List.rev found

let test_end_to_end_gc_phases () =
  (* Optimized ambig in generational mode, with a nursery of half the
     300-word semispace: the first minor promotes the two arrays, after
     which the old generation lacks the headroom for another, so the run
     takes both kinds of collection, with live derived values.
     This test is about the copying collections' four pause phases, so it
     installs the generational collector itself, whatever collector mode
     the environment selects (the incremental collector's phase structure
     — slices and flips — has its own accounting, checked in
     test_incremental). Nothing arms growth: the small heap must collect. *)
  let options =
    { Driver.Compile.default_options with optimize = true; heap_words = 300 }
  in
  let st = Vm.Interp.create (Driver.Compile.compile ~options Programs.Ambig_src.src) in
  Gc.Nursery.install ~nursery_words:150 st;
  Vm.Interp.run st;
  let gcs = st.Vm.Interp.gc in
  let collections = gcs.Vm.Interp.collections and minors = gcs.Vm.Interp.minor_collections in
  check Alcotest.bool "minor collections" true (minors >= 1);
  check Alcotest.bool "full collections" true (collections - minors >= 1);
  let n = T.Metrics.counter_value "gc.collections" in
  check Alcotest.int "metrics agree with run result" collections n;
  let samples phase =
    let h = T.Metrics.histogram phase in
    check Alcotest.int (phase ^ " observed once per collection") n h.T.Metrics.h_count;
    T.Metrics.samples h
  in
  let pause = samples "gc.pause_ns" in
  let phases =
    List.map samples [ "gc.stackwalk_ns"; "gc.underive_ns"; "gc.copy_ns"; "gc.rederive_ns" ]
  in
  (* The four phase windows tile each pause: integer-ns samples, so the
     sum is exact. *)
  Array.iteri
    (fun i p ->
      check Alcotest.int
        (Printf.sprintf "collection %d: phases sum to the pause" (i + 1))
        (int_of_float p)
        (List.fold_left (fun acc h -> acc + int_of_float h.(i)) 0 phases))
    pause;
  let under = T.Metrics.counter_value "derived.underived" in
  let reder = T.Metrics.counter_value "derived.rederived" in
  check Alcotest.bool "derived values were live at some gc" true (under > 0);
  check Alcotest.int "un-derive count equals re-derive count" under reder;
  (* The trace nests the same four phases, in order, inside every
     gc.collect and every gc.minor span. *)
  let events = T.Trace.recorded () in
  ignore (check_balance events);
  List.iter
    (fun (kind, count) ->
      let spans = children_of kind events in
      check Alcotest.int (kind ^ " spans") count (List.length spans);
      List.iter
        (check
           Alcotest.(list string)
           (kind ^ " nests the four phases")
           [ "gc.stackwalk"; "gc.underive"; "gc.copy"; "gc.rederive" ])
        spans)
    [ ("gc.collect", collections - minors); ("gc.minor", minors) ];
  (* And the export of that real trace parses back. *)
  let j = T.Json.parse (T.Trace.to_chrome_string ()) in
  check Alcotest.bool "export parses" true (T.Json.member "traceEvents" j <> None)

let test_gc_unsafe_warning () =
  let captured = ref [] in
  T.Log.sink := Some (fun level msg -> captured := (level, msg) :: !captured);
  let saved = !T.Log.verbosity in
  T.Log.verbosity := T.Log.Error (* keep stderr quiet during the test *);
  Fun.protect
    ~finally:(fun () ->
      T.Log.sink := None;
      T.Log.verbosity := saved)
    (fun () ->
      let options =
        { Driver.Compile.default_options with gc_restrict = false; heap_words = 4096 }
      in
      let r = Driver.Compile.run_source ~options Programs.Typereg_src.src in
      check Alcotest.bool "program still runs" true
        (String.length r.Driver.Compile.output > 0);
      check Alcotest.bool "warning emitted for gc-unsafe execution" true
        (List.exists (fun (l, _) -> l = T.Log.Warn) !captured);
      (* warn_once: a second run does not warn again. *)
      let before = List.length !captured in
      ignore (Driver.Compile.run_source ~options Programs.Typereg_src.src);
      check Alcotest.int "warning deduplicated" before (List.length !captured))

let test_disabled_is_inert () =
  T.Control.disable ();
  T.Trace.span "nope" (fun () -> ());
  T.Metrics.add "test.disabled" 5;
  ignore (T.Timer.time "nope.pass" (fun () -> ()));
  check Alcotest.int "no events recorded" 0 (List.length (T.Trace.recorded ()));
  check Alcotest.int "no counter movement" 0 (T.Metrics.counter_value "test.disabled");
  check Alcotest.bool "no timer entries" true (T.Timer.entries () = []);
  T.Control.enable ()

let () =
  Alcotest.run "telemetry"
    [
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick (fresh test_counters);
          Alcotest.test_case "gauges" `Quick (fresh test_gauges);
          Alcotest.test_case "histograms" `Quick (fresh test_histograms);
          Alcotest.test_case "reservoir sampling" `Quick (fresh test_reservoir);
          Alcotest.test_case "bucket percentiles" `Quick (fresh test_percentiles);
        ] );
      ( "trace",
        [
          Alcotest.test_case "span nesting" `Quick (fresh test_span_nesting);
          Alcotest.test_case "exception safety" `Quick (fresh test_span_exception_safety);
          Alcotest.test_case "unmatched end" `Quick (fresh test_unmatched_end_ignored);
          Alcotest.test_case "chrome json" `Quick (fresh test_chrome_json_well_formed);
          Alcotest.test_case "json roundtrip" `Quick (fresh test_json_roundtrip);
        ] );
      ( "timer",
        [ Alcotest.test_case "aggregation" `Quick (fresh test_timer) ] );
      ( "end-to-end",
        [
          Alcotest.test_case "gc phases" `Quick (fresh test_end_to_end_gc_phases);
          Alcotest.test_case "gc-unsafe warning" `Quick (fresh test_gc_unsafe_warning);
          Alcotest.test_case "disabled is inert" `Quick (fresh test_disabled_is_inert);
        ] );
    ]
