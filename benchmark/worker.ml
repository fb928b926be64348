(** One worker process: a preflight execution, a timed round, or the
    traced pass over one workload. Each prints one JSON object as the last
    line of its standard output for {!Harness} to collect. *)

module J = Telemetry.Json
module W = Workloads
module G = Support.Growarr

let now = Telemetry.Control.now_ns

let () =
  Printexc.register_printer (function
    | Vm.Vm_error.Error e -> Some (Vm.Vm_error.to_string e)
    | _ -> None)

(* --- attempts ----------------------------------------------------------- *)

(* Executions and compiles attempted in this process, and those that
   raised or produced the wrong output (the first few reasons kept). *)
let attempted = ref 0
let failed = ref 0
let errors = ref []

(** Run [f] as one counted attempt; [check] returns [Some reason] when the
    result is wrong, which counts as a failure but still returns the
    result (a wrong answer still took its time). [None] when [f] raised. *)
let attempt f ~check =
  incr attempted;
  let failure reason =
    incr failed;
    if List.length !errors < 5 then errors := reason :: !errors
  in
  match f () with
  | exception e ->
      failure (Printexc.to_string e);
      None
  | v ->
      Option.iter failure (check v);
      Some v

let expect ~what ~expected got =
  if got = expected then None
  else Some (Printf.sprintf "%s: output %S, expected %S" what got expected)

let tally_json () =
  [
    ("attempted", J.Int !attempted);
    ("failed", J.Int !failed);
    ("errors", J.List (List.rev_map (fun e -> J.Str e) !errors));
  ]

(* --- execution workloads ---------------------------------------------- *)

type exec_ctx = {
  name : string;
  spec : W.exec_spec;
  src : string;
  image : Vm.Image.t;
  placement : int array option;
}

(** A profiled generational execution through the driver: the training
    run a placement policy is derived from. *)
let train image ~nursery_words =
  let profile = Driver.Compile.profile_for image in
  let r = Driver.Compile.run ~collector:Driver.Compile.Generational ~nursery_words ~profile image in
  (profile, r.Driver.Compile.output)

(** Set-up: source generation, compile, engine translation and, for a
    trained workload, the training execution and policy derivation. *)
let setup_exec name (spec : W.exec_spec) ~seed =
  let src = Spans.time "setup.source" (fun () -> spec.W.source ~seed) in
  let image =
    Spans.time "setup.compile" (fun () ->
        Compile_layers.compile ~optimize:true ~heap_words:spec.W.heap_words src)
  in
  Spans.time "setup.translate" (fun () -> Hooks.translate image);
  let placement =
    match spec.W.collector with
    | Hooks.Nursery nursery_words when spec.W.trained ->
        let trained =
          attempt
            (fun () -> Spans.time "setup.train" (fun () -> train image ~nursery_words))
            ~check:(fun (_, out) -> expect ~what:(name ^ " training") ~expected:spec.W.expected out)
        in
        let prof =
          match trained with Some (p, _) -> p | None -> failwith "training execution raised"
        in
        Some
          (Spans.time "setup.derive" (fun () ->
               let policy = Policy.derive_from_stats prof in
               fst (Policy.decisions_for policy (Driver.Compile.sites_for image))))
    | _ -> None
  in
  { name; spec; src; image; placement }

(** One execution: create, install collector and placement, run. With
    [on_pause], every collector call and every slice is timed. Returns
    the machine and the execution's duration in ns. *)
let execute ctx ~on_pause =
  let t0 = now () in
  let st = Spans.time "vm.create" (fun () -> Hooks.create ctx.image) in
  Hooks.install st ctx.spec.W.collector ~placement:ctx.placement;
  (match on_pause with Some record -> Hooks.time_pauses st ~slices:true ~record | None -> ());
  Spans.time "vm.run" (fun () -> Hooks.run st);
  (st, Int64.sub (now ()) t0)

let checked_execute ctx ~on_pause =
  attempt
    (fun () -> execute ctx ~on_pause)
    ~check:(fun (st, _) -> expect ~what:ctx.name ~expected:ctx.spec.W.expected (Hooks.output st))

(* --- the compile workload ---------------------------------------------- *)

type corpus_entry = {
  prog : string;
  optimize : bool;
  src : string;
  image : Vm.Image.t; (* the set-up compile every later one must reproduce *)
}

let corpus_heap = Driver.Compile.default_options.Driver.Compile.heap_words

let setup_corpus () =
  List.concat_map
    (fun (prog, src, _) ->
      List.map
        (fun optimize ->
          let image =
            Spans.time "setup.compile" (fun () ->
                Compile_layers.compile ~optimize ~heap_words:corpus_heap src)
          in
          { prog; optimize; src; image })
        [ false; true ])
    W.corpus

(** One iteration: compile the whole corpus at O0 and O1. Each compile is
    an attempt, correct when it reproduces the set-up image's code and
    tables. Returns the iteration's compile time in ns. *)
let compile_corpus entries =
  let t0 = now () in
  let results =
    List.map
      (fun e ->
        match Compile_layers.compile ~optimize:e.optimize ~heap_words:corpus_heap e.src with
        | v -> Ok v
        | exception ex -> Error ex)
      entries
  in
  let dt = Int64.sub (now ()) t0 in
  List.iter2
    (fun e r ->
      ignore
        (attempt
           (fun () -> match r with Ok image -> image | Error ex -> raise ex)
           ~check:(fun (image : Vm.Image.t) ->
             if
               image.Vm.Image.code = e.image.Vm.Image.code
               && Compile_layers.table_bytes image = Compile_layers.table_bytes e.image
             then None
             else
               Some
                 (Printf.sprintf "%s O%d: image differs from the set-up compile" e.prog
                    (if e.optimize then 1 else 0)))))
    entries results;
  dt

let sum_over entries f = List.fold_left (fun acc e -> acc + f e) 0 entries

(* --- helpers ----------------------------------------------------------- *)

let peak_rss_kb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
        | _ -> go ()
        | exception End_of_file -> 0
      in
      go ())

let ints_json g = J.List (List.map (fun v -> J.Int (Int64.to_int v)) (Array.to_list (G.to_array g)))
let deadline_after seconds = Int64.add (now ()) (Int64.of_float (seconds *. 1e9))

(* --- preflight --------------------------------------------------------- *)

let contains ~sub s = W.occurrences ~sub s <> []

let run_corpus_program ~optimize src =
  let image = Compile_layers.compile ~optimize ~heap_words:corpus_heap src in
  let st = Hooks.create image in
  Hooks.install st Hooks.Cheney ~placement:None;
  Hooks.run st;
  Hooks.output st

(** One untimed execution of the workload with the heap verifier armed
    after every collection (and at every slice boundary); for compile,
    every corpus program at both levels, checked against its reference. *)
let preflight (w : W.t) ~seed =
  (match w.W.kind with
  | W.Corpus ->
      Hooks.configure ~workers:1 ~verify:true;
      List.iter
        (fun (prog, src, check) ->
          let what level = Printf.sprintf "%s O%d" prog level in
          let no_bug level out =
            if contains ~sub:"BUG" out then Some (what level ^ ": reports BUG") else None
          in
          let o0 =
            attempt
              (fun () -> run_corpus_program ~optimize:false src)
              ~check:(fun out ->
                match check with
                | W.Expect s -> expect ~what:(what 0) ~expected:s out
                | W.Same_across_levels -> no_bug 0 out)
          in
          ignore
            (attempt
               (fun () -> run_corpus_program ~optimize:true src)
               ~check:(fun out ->
                 match (check, o0) with
                 | W.Expect s, _ -> expect ~what:(what 1) ~expected:s out
                 | W.Same_across_levels, Some out0 when out0 <> out ->
                     Some (prog ^ ": O0 and O1 outputs differ")
                 | W.Same_across_levels, _ -> no_bug 1 out)))
        W.corpus
  | W.Exec spec ->
      Hooks.configure ~workers:spec.W.workers ~verify:true;
      let ctx = setup_exec w.W.name spec ~seed in
      ignore (checked_execute ctx ~on_pause:None));
  J.Obj (tally_json ())

(* --- timed round ------------------------------------------------------- *)

(** Set-ups timed per round: at least [min_setups], and more, up to
    [max_setups], until [setup_seconds] have gone into them. A set-up
    takes one to fifty milliseconds; the median of several leaves out the
    first, cold one and any that a stray interrupt lengthened. *)
let min_setups = 5

let max_setups = 40
let setup_seconds = 0.1

(** Run [setup] as above; the last result and the median time in ns. *)
let timed_setups setup =
  let times = G.create ~dummy:0.0 and result = ref None in
  let deadline = deadline_after setup_seconds in
  while G.length times < min_setups || (G.length times < max_setups && now () < deadline) do
    Stdlib.Gc.full_major ();
    let t0 = now () in
    result := Some (setup ());
    ignore (G.push times (Int64.to_float (Int64.sub (now ()) t0)))
  done;
  (Option.get !result, Stats.median (G.to_array times))

(** Set-up (timed), one warmup, then executions for [seconds], each after
    a full OCaml collection outside the timed window. *)
let round (w : W.t) ~seed ~seconds =
  let exec_ns = G.create ~dummy:0L and pause_ns = G.create ~dummy:0L in
  let setup_ns, code_bytes, table_bytes =
    match w.W.kind with
    | W.Corpus ->
        Hooks.configure ~workers:1 ~verify:false;
        let entries, setup_ns = timed_setups setup_corpus in
        ignore (compile_corpus entries);
        let deadline = deadline_after seconds in
        while now () < deadline do
          Stdlib.Gc.full_major ();
          ignore (G.push exec_ns (compile_corpus entries))
        done;
        ( setup_ns,
          sum_over entries (fun e -> e.image.Vm.Image.code_bytes),
          sum_over entries (fun e -> Compile_layers.table_bytes e.image) )
    | W.Exec spec ->
        Hooks.configure ~workers:spec.W.workers ~verify:false;
        let ctx, setup_ns = timed_setups (fun () -> setup_exec w.W.name spec ~seed) in
        ignore (checked_execute ctx ~on_pause:None);
        let record _ t0 t1 = ignore (G.push pause_ns (Int64.sub t1 t0)) in
        let deadline = deadline_after seconds in
        let i = ref 0 in
        while now () < deadline || !i < 2 do
          Stdlib.Gc.full_major ();
          (* Reading the clock around every slice poll (over a hundred
             thousand per execution) slows the execution itself, so an
             alternating workload times pauses and executions on
             different executions. *)
          let time_exec = (not spec.W.alternate) || !i mod 2 = 0 in
          let time_pauses = (not spec.W.alternate) || !i mod 2 = 1 in
          (match checked_execute ctx ~on_pause:(if time_pauses then Some record else None) with
          | Some (_, dt) when time_exec -> ignore (G.push exec_ns dt)
          | _ -> ());
          incr i
        done;
        (setup_ns, ctx.image.Vm.Image.code_bytes, Compile_layers.table_bytes ctx.image)
  in
  J.Obj
    ([
       ("setup_ns", J.Float setup_ns);
       ("exec_ns", ints_json exec_ns);
       ("pause_ns", ints_json pause_ns);
       ("code_bytes", J.Int code_bytes);
       ("table_bytes", J.Int table_bytes);
       ("peak_rss_kb", J.Int (peak_rss_kb ()));
     ]
    @ tally_json ())

(* --- traced pass ------------------------------------------------------- *)

let hist_sum name =
  match Telemetry.Metrics.find_histogram name with
  | Some h -> h.Telemetry.Metrics.h_sum
  | None -> 0.0

let hist_mean name =
  match Telemetry.Metrics.find_histogram name with
  | Some h -> Telemetry.Metrics.mean h
  | None -> 0.0

let counter name = float_of_int (Telemetry.Metrics.counter_value name)
let ratio a b = if b > 0.0 then a /. b else 0.0
let span_ms spans ~exec name = Int64.to_float (Spans.total spans ~exec name) /. 1e6

let compile_layer_metrics spans ~exec =
  [
    ("m3l.check_ms", span_ms spans ~exec "compile.check");
    ("mir.lower_ms", span_ms spans ~exec "compile.lower");
    ("opt.pipeline_ms", span_ms spans ~exec "compile.optimize");
    ("opt.barrier_elim_ms", span_ms spans ~exec "compile.barrier_elim");
    ("image.build_ms", span_ms spans ~exec "compile.image");
  ]

let image_metrics images =
  let sum f = float_of_int (List.fold_left (fun acc (i, s) -> acc + f i s) 0 images) in
  [
    ("mir.insns", sum (fun _ s -> s.Compile_layers.lowered_insns));
    ("opt.insns", sum (fun _ s -> s.Compile_layers.optimized_insns));
    ("opt.barriers_elided", sum (fun i _ -> i.Vm.Image.barriers_elided));
    ("image.gcpoints", sum (fun i _ -> Compile_layers.gcpoints i));
    ("code_bytes", sum (fun i _ -> i.Vm.Image.code_bytes));
    ("table_bytes", sum (fun i _ -> Compile_layers.table_bytes i));
  ]

(* Phase times the program's collectors record about themselves. *)
let phase_ns name = hist_sum ("gc." ^ name ^ "_ns")

(** Per-layer numbers of one traced execution, from its spans, the
    program's telemetry counters (reset before it), and the machine. *)
let exec_row spans ~exec st =
  let ms = span_ms spans ~exec in
  let exec_ms = ms "exec" and run_ms = ms "vm.run" in
  let gc_ms = ms "gc.call" +. ms "gc.slice" in
  let mutator_ms = run_ms -. gc_ms in
  let insns = float_of_int (Hooks.instructions st) in
  let walk = phase_ns "stackwalk" and underive = phase_ns "underive"
  and roots = phase_ns "forward_roots" and rederive = phase_ns "rederive"
  and copy = phase_ns "copy" in
  let hits = counter "decode.cache_hits" and misses = counter "decode.cache_misses" in
  let words = counter "gc.copy_words" in
  let marked, swept = Hooks.incremental_counts st in
  [
    ("exec_ms", exec_ms);
    ("vm.create_ms", ms "vm.create");
    ("vm.mutator_ms", mutator_ms);
    ("vm.insns", insns);
    ("vm.minsns_per_s", ratio insns (mutator_ms *. 1e3));
    ("vm.fused_execs", counter "vm.fused_execs");
    ("vm.allocs", counter "vm.allocations");
    ("vm.alloc_words", counter "vm.alloc_words");
    ("gc.ms", gc_ms);
    ("gc.share", ratio gc_ms exec_ms);
    ("gc.collections", counter "gc.collections");
    ("gc.stackwalk_ms", walk /. 1e6);
    ("gc.underive_ms", underive /. 1e6);
    ("gc.forward_roots_ms", roots /. 1e6);
    ("gc.rederive_ms", rederive /. 1e6);
    ("gc.copy_ms", copy /. 1e6);
    (* §6.3's "stack tracing" as the collectors' own [trace_ns] counts it:
       locating and decoding tables, walking frames, un-deriving, updating
       stack and register roots, and re-deriving, over all time in the gc. *)
    ("gc.trace_share", ratio ((walk +. underive +. roots +. rederive) /. 1e6) gc_ms);
    ("gc.frames", counter "gc.frames_traced");
    ("gc.words_copied", words);
    ("gc.objects_copied", counter "gc.objects_forwarded");
    ("gc.copy_mwords_per_s", ratio words (copy /. 1e3));
    ("gcmaps.finds", counter "decode.finds");
    ("gcmaps.cache_hit_ratio", ratio hits (hits +. misses));
    ("gcmaps.decode_bytes", counter "decode.bytes" +. counter "decode.cache_bytes");
    ("derived.underived", counter "derived.underived");
    ("derived.rederived", counter "derived.rederived");
    ("nursery.minor", counter "gc.minor_collections");
    ("nursery.major", counter "gc.major_collections");
    ("nursery.promoted_words", hist_sum "gc.minor_words");
    ("nursery.pretenured_words", counter "gc.pretenured_words");
    ("nursery.pool_words", counter "gc.pool_words");
    ("nursery.barrier_execs", counter "gc.barrier_execs");
    ("nursery.remset_inserts", counter "gc.remset_inserts");
    ("incremental.slices", counter "gc.slices");
    ("incremental.slice_overruns", counter "gc.slice_overruns");
    ("incremental.forced_finish", counter "gc.forced_finish");
    ("incremental.flip_us", hist_mean "gc.flip_ns" /. 1e3);
    ("incremental.marked_objects", float_of_int marked);
    ("incremental.swept_objects", float_of_int swept);
    (* The ledger: the copying collectors' four phase histograms against
       the benchmark's outside time of the same collector calls. *)
    ("ledger.inside_ms", (walk +. underive +. copy +. rederive) /. 1e6);
    ("ledger.outside_ms", ms "gc.call");
  ]

(** Median of each per-execution value over the traced executions. *)
let medians (rows : (string * float) list list) =
  match rows with
  | [] -> []
  | first :: _ ->
      List.map
        (fun (name, _) ->
          (name, Stats.median (Array.of_list (List.map (fun r -> List.assoc name r) rows))))
        first

let sum_of rows name =
  List.fold_left (fun acc r -> acc +. Option.value ~default:0.0 (List.assoc_opt name r)) 0.0 rows

(** The traced pass: set-up, then traced and untraced executions
    alternating for [seconds] and at least [min_traced] traced ones.
    Telemetry is on, and its metrics reset, for every traced execution;
    the untraced ones give the baseline for the tracing overhead. *)
let trace (w : W.t) ~seed ~seconds ~out_dir =
  let rows = ref [] and traced_ms = G.create ~dummy:0.0 and untraced_ms = G.create ~dummy:0.0 in
  let pauses = G.create ~dummy:0.0 in
  let traced ~exec f =
    Stdlib.Gc.full_major ();
    Telemetry.Metrics.reset ();
    Telemetry.Trace.clear ();
    Spans.exec_id := exec;
    let first = G.length !Spans.log in
    let result = f () in
    let spans = Array.sub (Spans.recorded ()) first (G.length !Spans.log - first) in
    (result, spans)
  in
  let untraced f =
    Stdlib.Gc.full_major ();
    Spans.enabled := false;
    Telemetry.Control.disable ();
    Fun.protect
      ~finally:(fun () ->
        Spans.enabled := true;
        Telemetry.Control.enable ())
      f
  in
  Spans.clear ();
  Spans.enabled := true;
  Telemetry.Control.enable ();
  let setup_metrics, min_traced, step =
    match w.W.kind with
    | W.Corpus ->
        Hooks.configure ~workers:1 ~verify:false;
        let entries = setup_corpus () in
        let step exec =
          let dt, spans =
            traced ~exec (fun () -> Spans.time "compile.corpus" (fun () -> compile_corpus entries))
          in
          ignore (G.push traced_ms (Int64.to_float dt /. 1e6));
          rows :=
            (("exec_ms", Int64.to_float dt /. 1e6) :: compile_layer_metrics spans ~exec) :: !rows;
          let dt = untraced (fun () -> compile_corpus entries) in
          ignore (G.push untraced_ms (Int64.to_float dt /. 1e6))
        in
        ( image_metrics
            (List.map (fun e -> (e.image, Compile_layers.sizes ~optimize:e.optimize e.src)) entries),
          50,
          step )
    | W.Exec spec ->
        Hooks.configure ~workers:spec.W.workers ~verify:false;
        let ctx = setup_exec w.W.name spec ~seed in
        let setup = Spans.recorded () in
        let on_pause kind t0 t1 =
          ignore (G.push pauses (Int64.to_float (Int64.sub t1 t0) /. 1e3));
          Spans.record (match kind with Hooks.Call -> "gc.call" | Hooks.Slice -> "gc.slice") t0 t1
        in
        let step exec =
          (match
             traced ~exec (fun () ->
                 Spans.time "exec" (fun () -> checked_execute ctx ~on_pause:(Some on_pause)))
           with
          | Some (st, dt), spans ->
              ignore (G.push traced_ms (Int64.to_float dt /. 1e6));
              rows := exec_row spans ~exec st :: !rows
          | None, _ -> ());
          match untraced (fun () -> checked_execute ctx ~on_pause:None) with
          | Some (_, dt) -> ignore (G.push untraced_ms (Int64.to_float dt /. 1e6))
          | None -> ()
        in
        let placed =
          match ctx.placement with
          | Some codes ->
              Array.fold_left (fun n c -> if c <> Policy.nursery_code then n + 1 else n) 0 codes
          | None -> 0
        in
        ( compile_layer_metrics setup ~exec:(-1)
          @ image_metrics [ (ctx.image, Compile_layers.sizes ~optimize:true ctx.src) ]
          @ [
              ("vm.translate_us", span_ms setup ~exec:(-1) "setup.translate" *. 1e3);
              ("profile.train_ms", span_ms setup ~exec:(-1) "setup.train");
              ("policy.derive_ms", span_ms setup ~exec:(-1) "setup.derive");
              ("policy.sites_placed", float_of_int placed);
            ],
          10,
          step )
  in
  let deadline = deadline_after seconds in
  let n = ref 0 in
  while !n < min_traced || now () < deadline do
    step !n;
    incr n
  done;
  Telemetry.Control.disable ();
  Spans.enabled := false;
  let spans = Spans.recorded () in
  let rows = !rows in
  let inside = sum_of rows "ledger.inside_ms" and outside = sum_of rows "ledger.outside_ms" in
  let gap = if W.copying w then Spans.ledger_gap ~inside ~outside else 0.0 in
  let pauses = G.to_array pauses in
  let pause_metrics =
    if Array.length pauses = 0 then []
    else
      [
        ("pause_us_p50", Stats.median pauses);
        ("pause_us_p99", Stats.percentile pauses 0.99);
        ("pause_us_max", Stats.percentile pauses 1.0);
      ]
  in
  let measured =
    setup_metrics @ medians rows @ pause_metrics
    @ [
        ( "trace.overhead",
          Stats.median (G.to_array traced_ms) /. Stats.median (G.to_array untraced_ms) -. 1.0 );
        ("trace.ledger_gap", gap);
      ]
  in
  let metrics =
    List.map
      (fun (m : Catalog.metric) ->
        (m.Catalog.name, J.Float (Option.value ~default:0.0 (List.assoc_opt m.Catalog.name measured))))
      Catalog.per_layer
  in
  (match out_dir with
  | Some dir ->
      let oc = open_out (Filename.concat dir (w.W.name ^ ".trace.json")) in
      output_string oc (J.to_string (Spans.to_chrome spans));
      output_char oc '\n';
      close_out oc
  | None -> ());
  J.Obj
    ([
       ("metrics", J.Obj metrics);
       ( "self_times",
         J.List
           (List.map
              (fun (name, count, total, self) ->
                J.Obj
                  [
                    ("name", J.Str name);
                    ("count", J.Int count);
                    ("total_ms", J.Float (Int64.to_float total /. 1e6));
                    ("self_ms", J.Float (Int64.to_float self /. 1e6));
                  ])
              (Spans.self_times spans)) );
       ( "ledger",
         J.Obj
           [
             ("inside_ms", J.Float inside);
             ("outside_ms", J.Float outside);
             ("gap", J.Float gap);
             ("checked", J.Bool (W.copying w));
           ] );
       ("traced", J.Int (List.length rows));
       ("untraced", J.Int (G.length untraced_ms));
     ]
    @ tally_json ())
