(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (section 6), plus the ablations called out in DESIGN.md.

     dune exec bench/main.exe            -- run everything
     dune exec bench/main.exe -- table1  -- just Table 1 (likewise table2,
                                            effects, timings, fig1, fig2,
                                            fig34, loops, decode, baseline,
                                            micro)

   Absolute numbers cannot match a 1989 VAXStation; the shapes (who wins,
   by what factor, which ratios are small) are the reproduction targets.
   See EXPERIMENTS.md for the recorded comparison. *)

module RM = Gcmaps.Rawmaps
module E = Gcmaps.Encode
module TS = Gcmaps.Table_stats
module T = Telemetry

let printf = Printf.printf

(* The destroy configuration used for the 6.3 timing runs: gc-intensive,
   like the paper's ("builds a complete tree ... repeatedly builds a new
   subtree ... replaces a randomly chosen subtree"). *)
let destroy_timing_src =
  Programs.Destroy_src.make ~branch:4 ~depth:5 ~replace_depth:2 ~iterations:400

let benchmarks =
  [
    ("typereg", Programs.Typereg_src.src);
    ("FieldList", Programs.Fieldlist_src.src);
    ("takl", Programs.Takl_src.src);
    ("destroy", Programs.Destroy_src.src);
  ]

let compile ?(optimize = false) ?(checks = true) ?(gc_restrict = true)
    ?(loop_gcpoints = false) ?(heap = 65536) src =
  Driver.Compile.compile
    ~options:
      {
        Driver.Compile.default_options with
        optimize;
        checks;
        gc_restrict;
        loop_gcpoints;
        heap_words = heap;
      }
    src

let hr () = printf "%s\n" (String.make 78 '-')

(* ------------------------------------------------------------------ *)
(* Table 1: program statistics                                         *)
(* ------------------------------------------------------------------ *)

let table1 () =
  hr ();
  printf "Table 1: statistics of each of the benchmark programs\n";
  printf "(Size = code bytes; NGC = gc-points with non-empty tables; NPTRS =\n";
  printf "pointer entries over all gc-points; NDEL/NREG/NDER = delta, register\n";
  printf "and derivation tables emitted, after identical-to-previous sharing)\n\n";
  printf "%-16s %8s %6s %7s %6s %6s %6s\n" "Program" "Size" "NGC" "NPTRS" "NDEL" "NREG"
    "NDER";
  List.iter
    (fun (name, src) ->
      List.iter
        (fun optimize ->
          let img = compile ~optimize src in
          let s = TS.compute img.Vm.Image.rawmaps in
          printf "%-16s %8d %6d %7d %6d %6d %6d\n"
            (if optimize then name ^ "-opt" else name)
            s.TS.size_bytes s.TS.ngc s.TS.nptrs s.TS.ndel s.TS.nreg s.TS.nder)
        [ false; true ])
    benchmarks

(* ------------------------------------------------------------------ *)
(* Table 2: table sizes as a percentage of code size                   *)
(* ------------------------------------------------------------------ *)

let table2 () =
  hr ();
  printf "Table 2: table sizes as a percentage of code size\n\n";
  printf "%-16s | %8s %8s | %8s %8s %8s %8s\n" "" "Full" "Info" "" "delta-main" "" "";
  printf "%-16s | %8s %8s | %8s %8s %8s %8s\n" "Program" "Plain" "Packing" "Plain"
    "Previous" "Packing" "PP";
  let sums = Hashtbl.create 8 in
  let nrows = ref 0 in
  List.iter
    (fun (name, src) ->
      List.iter
        (fun optimize ->
          let img = compile ~optimize src in
          let pct = TS.size_percentages img.Vm.Image.rawmaps in
          let get k = List.assoc k pct in
          incr nrows;
          List.iter
            (fun k ->
              Hashtbl.replace sums k
                (get k +. Option.value ~default:0.0 (Hashtbl.find_opt sums k)))
            (List.map fst pct);
          printf "%-16s | %8.1f %8.1f | %8.1f %8.1f %8.1f %8.1f\n"
            (if optimize then name ^ "-opt" else name)
            (get "full/plain") (get "full/packing") (get "delta/plain")
            (get "delta/previous") (get "delta/packing") (get "delta/pp"))
        [ false; true ])
    benchmarks;
  let avg k = Hashtbl.find sums k /. float_of_int !nrows in
  printf "%-16s | %8.1f %8.1f | %8.1f %8.1f %8.1f %8.1f\n" "(average)"
    (avg "full/plain") (avg "full/packing") (avg "delta/plain") (avg "delta/previous")
    (avg "delta/packing") (avg "delta/pp");
  printf
    "\nPaper's headline: Packing+Previous reduces delta-main tables from ~45%% to\n~16%% of optimized code size; here: %.1f%% -> %.1f%%.\n"
    (avg "delta/plain") (avg "delta/pp")

(* ------------------------------------------------------------------ *)
(* 6.2: effects on the generated code                                  *)
(* ------------------------------------------------------------------ *)

let effects () =
  hr ();
  printf "Section 6.2: effect of gc restrictions on the generated code\n";
  printf "(restricted = gc-safe; unrestricted = indirect references may be folded\n";
  printf "into deferred addressing modes, as without the paper's support)\n\n";
  printf "%-18s %10s %12s %10s %12s\n" "Program" "code(gc)" "code(no-gc)" "added B"
    "splits";
  let all = benchmarks @ [ ("indirect", Programs.Indirect_src.src) ] in
  List.iter
    (fun (name, src) ->
      List.iter
        (fun checks ->
          let r = compile ~checks src in
          let u = compile ~checks ~gc_restrict:false src in
          printf "%-18s %10d %12d %10d %12d\n"
            (name ^ if checks then "" else "-nochecks")
            r.Vm.Image.code_bytes u.Vm.Image.code_bytes
            (r.Vm.Image.code_bytes - u.Vm.Image.code_bytes)
            r.Vm.Image.folds_suppressed)
        [ true; false ])
    all;
  printf
    "\nThe four benchmarks show no or very few splits, matching the paper's\n\"no effect on optimized code\"; the indirect-reference micro-benchmark\nshows the splits the paper counted (12 in typereg, 32 in FieldList, VAX).\n"

(* ------------------------------------------------------------------ *)
(* 6.3: stack tracing time                                             *)
(* ------------------------------------------------------------------ *)

let ns_to_us ns = Int64.to_float ns /. 1e3

let run_destroy ~with_null_trace ~heap =
  let img = compile ~optimize:true ~heap destroy_timing_src in
  let st = Vm.Interp.create img in
  Gc.Cheney.install st;
  if with_null_trace then begin
    let real = Option.get st.Vm.Interp.collector in
    st.Vm.Interp.collector <-
      Some
        (fun s ~needed ->
          Gc.Cheney.trace_only s;
          real s ~needed)
  end;
  let t0 = Unix.gettimeofday () in
  Vm.Interp.run st;
  let wall = Unix.gettimeofday () -. t0 in
  (st, wall)

(* The instrumented numbers now come from the telemetry layer: the
   collector's phase histograms (stackwalk / un-derive / copy / re-derive)
   are the single stopwatch, shared with `mmrun --gc-stats/--trace`. Stack
   tracing, in the paper's accounting, is everything driven by the tables:
   the walk, both derived-value passes, and forwarding the frame roots. *)
let with_telemetry f =
  T.Metrics.reset ();
  T.Trace.clear ();
  T.Control.enable ();
  Fun.protect ~finally:T.Control.disable f

let hist_sum name = (T.Metrics.histogram name).T.Metrics.h_sum

let hist_json name =
  let h = T.Metrics.histogram name in
  T.Json.Obj
    [
      ("count", T.Json.Int h.T.Metrics.h_count);
      ("sum", T.Json.Float h.T.Metrics.h_sum);
      ("mean", T.Json.Float (T.Metrics.mean h));
      ("min", T.Json.Float (if h.T.Metrics.h_count = 0 then 0.0 else h.T.Metrics.h_min));
      ("max", T.Json.Float (if h.T.Metrics.h_count = 0 then 0.0 else h.T.Metrics.h_max));
    ]

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* Bench hygiene: one discarded warmup run, then the median of [reps] timed
   runs — robust to scheduler noise and first-run cache effects where a
   mean (or a single sample) is not. *)
let median_wall ?(warmup = 1) ?(reps = 5) f =
  for _ = 1 to warmup do
    ignore (f ())
  done;
  median (List.init reps (fun _ -> f ()))

let trace_work_ns () =
  hist_sum "gc.stackwalk_ns" +. hist_sum "gc.underive_ns"
  +. hist_sum "gc.rederive_ns"
  +. hist_sum "gc.forward_roots_ns"

let timings () =
  hr ();
  printf "Section 6.3: stack tracing cost on destroy (branch=4 depth=5, 400\n";
  printf "replacements, heap sized to collect frequently)\n\n";
  with_telemetry (fun () -> ignore (run_destroy ~with_null_trace:false ~heap:12000));
  let n = T.Metrics.counter_value "gc.collections" in
  let frames = T.Metrics.counter_value "gc.frames_traced" in
  let total_us = hist_sum "gc.pause_ns" /. 1e3 in
  let trace_us = trace_work_ns () /. 1e3 in
  printf "collections                  : %d\n" n;
  printf "frames traced                : %d (%.1f per collection)\n" frames
    (float_of_int frames /. float_of_int (max 1 n));
  printf "total gc time                : %.0f us\n" total_us;
  printf "stack tracing (instrumented) : %.0f us\n" trace_us;
  printf "  per collection             : %.1f us\n" (trace_us /. float_of_int (max 1 n));
  printf "  per frame                  : %.2f us\n" (trace_us /. float_of_int (max 1 frames));
  let share = 100.0 *. trace_us /. Float.max 1e-9 total_us in
  printf "stack tracing / total gc     : %.1f%%\n" share;
  printf "phase breakdown (us)         : walk %.0f, un-derive %.0f, copy %.0f, re-derive %.0f\n"
    (hist_sum "gc.stackwalk_ns" /. 1e3)
    (hist_sum "gc.underive_ns" /. 1e3)
    (hist_sum "gc.copy_ns" /. 1e3)
    (hist_sum "gc.rederive_ns" /. 1e3);
  (* The paper's differencing methodology: one run where each collection is
     preceded by a null stack trace, one without; the difference estimates
     the trace cost. Warmup plus median-of-5 to tame variance, as they had
     to. *)
  let reps = 5 in
  let with_nt =
    median_wall ~reps (fun () -> snd (run_destroy ~with_null_trace:true ~heap:12000))
  in
  let without =
    median_wall ~reps (fun () -> snd (run_destroy ~with_null_trace:false ~heap:12000))
  in
  let diff_us = (with_nt -. without) *. 1e6 /. float_of_int (max 1 n) in
  printf "null-trace differencing      : %.1f us per collection (median of %d)\n" diff_us
    reps;
  (* Per-frame cost with deep stacks (the paper reports 27-98 us per frame;
     destroy's stacks are shallow, so also measure a recursion-heavy
     workload whose collections see ~100 frames). *)
  let deep_src =
    "MODULE Deep;\n\
     TYPE Node = RECORD v: INTEGER; n: L END; L = REF Node;\n\
     VAR x, round: INTEGER;\n\
     PROCEDURE Count(l: L): INTEGER;\n\
     VAR c: INTEGER;\n\
     BEGIN c := 0; WHILE l # NIL DO c := c + 1; l := l.n END; RETURN c END Count;\n\
     PROCEDURE Grow(n: INTEGER; acc: L): INTEGER;\n\
     VAR mine, junk: L; k: INTEGER;\n\
     BEGIN\n\
     mine := NEW(L); mine.v := n; mine.n := acc;\n\
     FOR k := 1 TO 4 DO junk := NEW(L); junk.v := k END;\n\
     IF n = 0 THEN RETURN Count(mine) END;\n\
     RETURN Grow(n - 1, mine) + mine.v * 0\n\
     END Grow;\n\
     BEGIN\n\
     x := 0;\n\
     FOR round := 1 TO 40 DO x := x + Grow(100, NIL) END;\n\
     PutInt(x); PutLn()\n\
     END Deep.\n"
  in
  with_telemetry (fun () ->
      let img = compile ~optimize:true ~heap:3000 deep_src in
      let st = Vm.Interp.create img in
      Gc.Cheney.install st;
      Vm.Interp.run st);
  let dn = T.Metrics.counter_value "gc.collections" in
  let dframes = T.Metrics.counter_value "gc.frames_traced" in
  printf "deep-stack workload          : %d collections, %.1f frames each,\n" dn
    (float_of_int dframes /. float_of_int (max 1 dn));
  printf "                               %.2f us per frame, tracing %.1f%% of gc\n"
    (trace_work_ns () /. 1e3 /. float_of_int (max 1 dframes))
    (100.0 *. trace_work_ns () /. Float.max 1e-9 (hist_sum "gc.pause_ns"));
  printf
    "\nPaper: 470 us/collection (90%% confidence < 1710 us), 27-98 us per frame\non a ~3 MIPS VAXStation 3500 (roughly 100-400 VAX instructions per frame);\ntracing < 6%% of total gc time for ordinary programs.\nHere, on the copy-heavy destroy workload: %.1f%%, which %s.\nOn the deep-stack workload, where almost nothing survives, tracing\ndominates gc by construction -- the per-frame cost is the meaningful\nnumber there.\n"
    share
    (if share < 6.0 then "matches the paper's bound" else "exceeds the paper's bound")

(* ------------------------------------------------------------------ *)
(* Figure 1: a derivations table in action                             *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  hr ();
  printf "Figure 1: derivations table for a := b1 + b3 - b2 + E\n\n";
  let module L = Gcmaps.Loc in
  let entry =
    {
      RM.target = L.Lreg 2;
      plus = [ L.Lmem (L.FP, -1); L.Lmem (L.FP, -3) ];
      minus = [ L.Lmem (L.FP, -2) ];
    }
  in
  printf "table: %s\n" (Format.asprintf "%a" RM.pp_deriv entry);
  (* Simulate the two-step update with concrete values. *)
  let b1 = ref 1000 and b2 = ref 2000 and b3 = ref 3000 in
  let e = 40 in
  let a = ref (!b1 + !b3 - !b2 + e) in
  printf "before collection: b1=%d b2=%d b3=%d a=%d (E=%d)\n" !b1 !b2 !b3 !a e;
  a := !a - !b1 - !b3 + !b2;
  printf "step 1 (adjust):   a=%d  -- E recovered without knowing it\n" !a;
  b1 := !b1 + 640;
  b2 := !b2 - 320;
  b3 := !b3 + 64;
  a := !a + !b1 + !b3 - !b2;
  printf "step 2 (re-derive): b1=%d b2=%d b3=%d a=%d\n" !b1 !b2 !b3 !a;
  assert (!a = !b1 + !b3 - !b2 + e);
  printf "invariant a = b1 + b3 - b2 + E holds after the move.\n"

(* ------------------------------------------------------------------ *)
(* Figure 2 / section 4: ambiguous derivations and path variables      *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  hr ();
  printf "Figure 2 / section 4: ambiguous derivations (path-variable scheme)\n\n";
  let options =
    { Driver.Compile.default_options with optimize = true; checks = false }
  in
  let prog = Driver.Compile.to_mir ~options Programs.Ambig_src.src in
  let ambig_slots = ref 0 and path_stores = ref 0 in
  Array.iter
    (fun (f : Mir.Ir.func) ->
      Array.iter
        (fun (li : Mir.Ir.local_info) ->
          match li.Mir.Ir.l_slot with
          | Mir.Ir.Sambig a ->
              incr ambig_slots;
              printf "func %-8s slot %s: %d derivations, path variable local%d\n"
                f.Mir.Ir.fname li.Mir.Ir.l_name
                (List.length a.Mir.Ir.cases)
                a.Mir.Ir.path_local
          | _ -> ())
        f.Mir.Ir.locals;
      Array.iter
        (fun (b : Mir.Ir.block) ->
          List.iter
            (fun i ->
              match i with
              | Mir.Ir.St_local (l, 0, Mir.Ir.Oimm _)
                when f.Mir.Ir.locals.(l).Mir.Ir.l_name = "$path" ->
                  incr path_stores
              | _ -> ())
            b.Mir.Ir.instrs)
        f.Mir.Ir.blocks)
    prog.Mir.Ir.funcs;
  printf "ambiguous slots: %d; path-variable assignments added: %d\n" !ambig_slots
    !path_stores;
  let img = Driver.Compile.image_of_mir ~options prog in
  let variants =
    Array.fold_left
      (fun acc (pm : RM.proc_maps) ->
        List.fold_left
          (fun acc (g : RM.gcpoint) -> acc + List.length g.RM.variants)
          acc pm.RM.pm_gcpoints)
      0 img.Vm.Image.rawmaps
  in
  printf "gc-points carrying variant tables: %d\n" variants;
  let st = Vm.Interp.create img in
  Gc.Cheney.install st;
  Vm.Interp.run st;
  printf "run (no pressure): %s" (Vm.Interp.output st);
  let img2 =
    Driver.Compile.compile
      ~options:{ options with heap_words = 300 }
      Programs.Ambig_src.src
  in
  let st2 = Vm.Interp.create img2 in
  Gc.Cheney.install st2;
  Vm.Interp.run st2;
  printf "run (%d collections with the ambiguous origin live): %s"
    st2.Vm.Interp.gc.Vm.Interp.collections (Vm.Interp.output st2);
  printf
    "(path splitting, the alternative in Fig. 2, would duplicate the loop body\ninstead; the paper chose path variables, and so do we.)\n"

(* ------------------------------------------------------------------ *)
(* Figures 3-4: byte packing                                           *)
(* ------------------------------------------------------------------ *)

let fig34 () =
  hr ();
  printf "Figures 3-4: packing words into bytes\n\n";
  List.iter
    (fun v ->
      let b = Support.Varint.encode_to_bytes v in
      printf "%8d -> %d byte(s):" v (Bytes.length b);
      Bytes.iter (fun c -> printf " %02x" (Char.code c)) b;
      printf "\n")
    [ 0; -1; 13; -30; 63; -64; 64; 1000; -100000 ];
  printf "\nGround-table entry sizes across the benchmarks (packed):\n";
  printf "%-16s %8s %8s %8s\n" "Program" "1 byte" "2 bytes" ">2";
  List.iter
    (fun (name, src) ->
      let img = compile ~optimize:true src in
      let one = ref 0 and two = ref 0 and more = ref 0 in
      Array.iter
        (fun pm ->
          Array.iter
            (fun l ->
              match Support.Varint.byte_length (Gcmaps.Loc.to_int l) with
              | 1 -> incr one
              | 2 -> incr two
              | _ -> incr more)
            (E.ground_table pm))
        img.Vm.Image.rawmaps;
      printf "%-16s %8d %8d %8d\n" name !one !two !more)
    benchmarks;
  printf "\nMost entries fit in one byte, as in the paper's Fig. 4.\n"

(* ------------------------------------------------------------------ *)
(* A1: gc-points in loops                                              *)
(* ------------------------------------------------------------------ *)

let loops () =
  hr ();
  printf "Ablation A1 (section 5.3): cost of guaranteed gc-points in loops\n";
  printf "(needed for pre-emptive multithreading)\n\n";
  printf "%-16s %12s %12s %14s %14s\n" "Program" "gc-points" "+loops" "table B" "+loops B";
  List.iter
    (fun (name, src) ->
      let count img =
        Array.fold_left
          (fun acc (pm : RM.proc_maps) -> acc + List.length pm.RM.pm_gcpoints)
          0 img.Vm.Image.rawmaps
      in
      let base = compile ~optimize:true src in
      let with_loops = compile ~optimize:true ~loop_gcpoints:true src in
      printf "%-16s %12d %12d %14d %14d\n" name (count base) (count with_loops)
        (E.total_table_bytes base.Vm.Image.tables)
        (E.total_table_bytes with_loops.Vm.Image.tables))
    benchmarks

(* ------------------------------------------------------------------ *)
(* A2: decode overhead, delta-main vs full info                        *)
(* ------------------------------------------------------------------ *)

let decode_bench () =
  hr ();
  printf "Ablation A2 (section 6.1): table decode cost per gc-point\n\n";
  let img = compile ~optimize:true Programs.Typereg_src.src in
  let raw = img.Vm.Image.rawmaps in
  let code_starts =
    Array.map
      (fun (pi : Vm.Image.proc_info) -> img.Vm.Image.insn_offsets.(pi.Vm.Image.pi_entry))
      img.Vm.Image.procs
  in
  printf "%-24s %14s %12s\n" "configuration" "ns/gc-point" "bytes";
  List.iter
    (fun (name, scheme, opts) ->
      let tables = E.encode_program scheme opts raw code_starts in
      let points =
        Array.to_list raw
        |> List.concat_map (fun (pm : RM.proc_maps) ->
               List.map
                 (fun (g : RM.gcpoint) ->
                   (pm.RM.pm_fid, code_starts.(pm.RM.pm_fid) + g.RM.gp_offset))
                 pm.RM.pm_gcpoints)
      in
      let n = List.length points in
      let reps = 200 in
      let t0 = Unix.gettimeofday () in
      for _ = 1 to reps do
        List.iter
          (fun (fid, code_offset) -> ignore (Gcmaps.Decode.find tables ~fid ~code_offset))
          points
      done;
      let dt = Unix.gettimeofday () -. t0 in
      printf "%-24s %14.0f %12d\n" name
        (dt *. 1e9 /. float_of_int (reps * max 1 n))
        (E.total_table_bytes tables))
    TS.configs;
  (* Decode work (stream bytes scanned) per full sweep over every gc-point:
     the uncached column is the paper's re-scan cost and is untouched by
     the cache; the cached columns show the one-time fill and the
     steady-state sweeps that follow it. *)
  printf "\nDecode work per sweep of all gc-points (stream bytes scanned):\n";
  printf "%-24s %12s %12s %12s\n" "configuration" "uncached" "fill(once)" "steady";
  List.iter
    (fun (name, scheme, opts) ->
      let tables = E.encode_program scheme opts raw code_starts in
      let points =
        Array.to_list raw
        |> List.concat_map (fun (pm : RM.proc_maps) ->
               List.map
                 (fun (g : RM.gcpoint) ->
                   (pm.RM.pm_fid, code_starts.(pm.RM.pm_fid) + g.RM.gp_offset))
                 pm.RM.pm_gcpoints)
      in
      let sweep find =
        List.iter (fun (fid, code_offset) -> ignore (find ~fid ~code_offset)) points
      in
      with_telemetry (fun () ->
          let bytes () = T.Metrics.counter_value "decode.bytes" in
          let fill () = T.Metrics.counter_value "decode.cache_bytes" in
          sweep (Gcmaps.Decode.find tables);
          let uncached = bytes () in
          let cache = Gcmaps.Decode_cache.create tables in
          let b0 = bytes () and f0 = fill () in
          sweep (Gcmaps.Decode_cache.find cache);
          let fill_sweep = bytes () - b0 + (fill () - f0) in
          let b1 = bytes () and f1 = fill () in
          sweep (Gcmaps.Decode_cache.find cache);
          let steady = bytes () - b1 + (fill () - f1) in
          printf "%-24s %12d %12d %12d\n" name uncached fill_sweep steady))
    TS.configs;
  printf
    "\nThe paper kept delta-main because its decode overhead, though higher\nthan full-info, is a small part of collection time (sections 6.1, 6.3).\nThe decode cache turns the per-collection re-scan into a one-time fill;\n`mmrun --no-decode-cache` restores the paper's behaviour.\n"

(* ------------------------------------------------------------------ *)
(* A3: precise compacting vs conservative mark-sweep                   *)
(* ------------------------------------------------------------------ *)

let baseline () =
  hr ();
  printf "Ablation A3 (section 7): precise compacting vs Boehm-style\n";
  printf "conservative mark-sweep\n\n";
  printf "%-10s %-13s %4s %9s %7s %9s %6s %7s %8s\n" "program" "collector" "gcs"
    "gc us" "marked" "retained" "free" "blocks" "largest";
  let row name collector (st : Vm.Interp.t) marked =
    let nb, free, largest = Vm.Interp.free_list_stats st in
    printf "%-10s %-13s %4d %9.0f %7s %9d %6d %7d %8d\n" name collector
      st.Vm.Interp.gc.Vm.Interp.collections
      (ns_to_us st.Vm.Interp.gc.Vm.Interp.total_gc_ns)
      marked
      (st.Vm.Interp.alloc - st.Vm.Interp.from_base - free)
      free nb largest
  in
  let mismatches =
    List.filter
      (fun (name, src, heap) ->
        let img = compile ~optimize:true ~heap src in
        let st = Vm.Interp.create img in
        Gc.Cheney.install st;
        Vm.Interp.run st;
        row name "precise" st "-";
        let img2 = compile ~optimize:true ~heap:(heap * 2) src in
        let st2 = Vm.Interp.create img2 in
        let inc = Gc.Incremental.install_conservative st2 in
        Vm.Interp.run st2;
        row name "conservative" st2 (string_of_int inc.Vm.Interp.inc_marked_objects);
        let mismatch = Vm.Interp.output st <> Vm.Interp.output st2 in
        if mismatch then printf "!! OUTPUT MISMATCH between collectors on %s\n" name;
        mismatch)
      [
        ("destroy", destroy_timing_src, 12000);
        ("typereg", Programs.Typereg_src.src, 3000);
        ("ambig", Programs.Ambig_src.src, 400);
      ]
  in
  printf
    "\nThe precise collector compacts (no free list, allocation is a bump);\n\
     the conservative one cannot move objects and accumulates a fragmented\n\
     free list -- the paper's motivation for accurate tables (section 1).\n\
     The conservative rows run the incremental collector's mark-sweep core\n\
     stop-the-world, with ambiguous roots and an ambiguous field scan.\n\
     marked = objects marked over all collections; retained = heap words\n\
     held by objects at exit; free and blocks = the free list at exit.\n\
     gc us is reported, not claimed: one run, wall clock.\n";
  if mismatches <> [] then exit 1

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro () =
  hr ();
  printf "Bechamel micro-benchmarks (ns per run, OLS estimate)\n\n";
  let open Bechamel in
  let img = compile ~optimize:true Programs.Typereg_src.src in
  let tables = img.Vm.Image.tables in
  let some_point =
    let pm =
      Array.to_list img.Vm.Image.rawmaps
      |> List.find (fun (pm : RM.proc_maps) -> pm.RM.pm_gcpoints <> [])
    in
    let g = List.hd pm.RM.pm_gcpoints in
    ( pm.RM.pm_fid,
      img.Vm.Image.insn_offsets.(img.Vm.Image.procs.(pm.RM.pm_fid).Vm.Image.pi_entry)
      + g.RM.gp_offset )
  in
  let tests =
    Test.make_grouped ~name:"gcmaps"
      [
        Test.make ~name:"varint encode+decode"
          (Staged.stage (fun () ->
               let b = Support.Varint.encode_to_bytes (-12345) in
               ignore (Support.Varint.decode b 0)));
        Test.make ~name:"decode.find (delta-main pp)"
          (Staged.stage (fun () ->
               let fid, code_offset = some_point in
               ignore (Gcmaps.Decode.find tables ~fid ~code_offset)));
        Test.make ~name:"encode_proc (delta-main pp)"
          (Staged.stage (fun () ->
               ignore
                 (E.encode_proc E.Delta_main
                    { E.packing = true; previous = true }
                    img.Vm.Image.rawmaps.(0))));
      ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~stabilize:true ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> printf "%-40s %12.0f ns/run\n" name est
      | _ -> printf "%-40s (no estimate)\n" name)
    results

(* ------------------------------------------------------------------ *)
(* PERF: gc hot-path before/after (BENCH_2.json)                       *)
(* ------------------------------------------------------------------ *)

(* The perf trajectory target: the gc-intensive destroy timing config run
   twice — decode cache disabled (the paper-faithful per-frame stream
   re-scan) and enabled — reporting pause-phase histograms and decode work
   for both, and emitting the comparison as BENCH_2.json.

   Environment knobs (used by the CI smoke step):
     BENCH_PERF_ITERS  replacement iterations (default 400)
     BENCH_PERF_OUT    output JSON path (default BENCH_2.json)
     BENCH_PERF_TRACE  also write a Chrome trace of the cached run here *)

let perf () =
  hr ();
  let getenv_int name default =
    match Sys.getenv_opt name with
    | Some s -> ( match int_of_string_opt s with Some v -> v | None -> default)
    | None -> default
  in
  let iters = getenv_int "BENCH_PERF_ITERS" 400 in
  let out_path = Option.value ~default:"BENCH_2.json" (Sys.getenv_opt "BENCH_PERF_OUT") in
  let trace_path = Sys.getenv_opt "BENCH_PERF_TRACE" in
  let heap = 12000 in
  printf "PERF: gc hot paths on destroy (branch=4 depth=5 replace=2, %d\n" iters;
  printf "replacements, heap %d words/semispace): decode cache off vs on\n\n" heap;
  let src = Programs.Destroy_src.make ~branch:4 ~depth:5 ~replace_depth:2 ~iterations:iters in
  let was_enabled = Gcmaps.Decode_cache.enabled () in
  let run_one ~cached =
    Gcmaps.Decode_cache.set_enabled cached;
    let snapshot = ref T.Json.Null in
    let output = ref "" in
    with_telemetry (fun () ->
        let img = compile ~optimize:true ~heap src in
        let st = Vm.Interp.create img in
        Gc.Cheney.install st;
        let t0 = Unix.gettimeofday () in
        Vm.Interp.run st;
        let wall = Unix.gettimeofday () -. t0 in
        output := Vm.Interp.output st;
        let c = T.Metrics.counter_value in
        let colls = max 1 (c "gc.collections") in
        snapshot :=
          T.Json.Obj
            [
              ("decode_cache", T.Json.Bool cached);
              ("wall_s", T.Json.Float wall);
              ("collections", T.Json.Int (c "gc.collections"));
              ("frames_traced", T.Json.Int (c "gc.frames_traced"));
              ("vm_instructions", T.Json.Int (c "vm.instructions"));
              ("allocations", T.Json.Int (c "vm.allocations"));
              ( "decode",
                T.Json.Obj
                  [
                    ("finds", T.Json.Int (c "decode.finds"));
                    ("bytes", T.Json.Int (c "decode.bytes"));
                    ( "bytes_per_collection",
                      T.Json.Float (float_of_int (c "decode.bytes") /. float_of_int colls) );
                    ("cache_hits", T.Json.Int (c "decode.cache_hits"));
                    ("cache_misses", T.Json.Int (c "decode.cache_misses"));
                    ("cache_bytes", T.Json.Int (c "decode.cache_bytes"));
                  ] );
              ( "phases_ns",
                T.Json.Obj
                  [
                    ("pause", hist_json "gc.pause_ns");
                    ("stackwalk", hist_json "gc.stackwalk_ns");
                    ("underive", hist_json "gc.underive_ns");
                    ("copy", hist_json "gc.copy_ns");
                    ("forward_roots", hist_json "gc.forward_roots_ns");
                    ("rederive", hist_json "gc.rederive_ns");
                  ] );
            ];
        match trace_path with
        | Some path when cached -> T.Trace.write_chrome_file path
        | _ -> ());
    (!snapshot, !output)
  in
  let uncached, out_u = run_one ~cached:false in
  let cached, out_c = run_one ~cached:true in
  Gcmaps.Decode_cache.set_enabled was_enabled;
  if out_u <> out_c then printf "!! OUTPUT MISMATCH between cached and uncached runs\n";
  let geti j path =
    let rec go j = function
      | [] -> ( match j with T.Json.Int i -> float_of_int i | T.Json.Float f -> f | _ -> 0.0)
      | k :: rest -> ( match T.Json.member k j with Some v -> go v rest | None -> 0.0)
    in
    go j path
  in
  let row name path =
    let u = geti uncached path and c = geti cached path in
    printf "%-32s %14.0f %14.0f %9s\n" name u c
      (if c > 0.0 then Printf.sprintf "%8.1fx" (u /. c) else "-")
  in
  printf "%-32s %14s %14s %9s\n" "metric" "uncached" "cached" "ratio";
  row "collections" [ "collections" ];
  row "decode.finds" [ "decode"; "finds" ];
  row "decode.bytes (at find time)" [ "decode"; "bytes" ];
  row "decode.bytes / collection" [ "decode"; "bytes_per_collection" ];
  row "cache fill bytes (once)" [ "decode"; "cache_bytes" ];
  row "gc.pause_ns (sum)" [ "phases_ns"; "pause"; "sum" ];
  row "gc.stackwalk_ns (sum)" [ "phases_ns"; "stackwalk"; "sum" ];
  row "gc.copy_ns (sum)" [ "phases_ns"; "copy"; "sum" ];
  row "gc.forward_roots_ns (sum)" [ "phases_ns"; "forward_roots"; "sum" ];
  let ub = geti uncached [ "decode"; "bytes" ] in
  let cb = geti cached [ "decode"; "bytes" ] +. geti cached [ "decode"; "cache_bytes" ] in
  let reduction = if cb > 0.0 then ub /. cb else infinity in
  printf "\ndecode work reduction (incl. one-time cache fill): %.1fx\n" reduction;
  let doc =
    T.Json.Obj
      [
        ("bench", T.Json.Str "gc_hotpath_destroy");
        ("program", T.Json.Str "destroy");
        ( "params",
          T.Json.Obj
            [
              ("branch", T.Json.Int 4);
              ("depth", T.Json.Int 5);
              ("replace_depth", T.Json.Int 2);
              ("iterations", T.Json.Int iters);
              ("heap_words", T.Json.Int heap);
              ("optimize", T.Json.Bool true);
            ] );
        ("uncached", uncached);
        ("cached", cached);
        ( "decode_bytes_reduction_incl_fill",
          T.Json.Float (if Float.is_finite reduction then reduction else 1e12) );
        ("outputs_match", T.Json.Bool (out_u = out_c));
      ]
  in
  let oc = open_out out_path in
  output_string oc (T.Json.to_string doc);
  output_string oc "\n";
  close_out oc;
  printf "wrote %s%s\n" out_path
    (match trace_path with Some p -> Printf.sprintf " and trace %s" p | None -> "")

(* ------------------------------------------------------------------ *)
(* GEN: generational vs full compaction (BENCH_3.json)                 *)
(* ------------------------------------------------------------------ *)

(* The generational trajectory target: the same source compiled identically
   and run under the full Cheney compactor and under the nursery collector
   (the tables must come out byte-for-byte identical — the generational
   machinery is a pure runtime switch), reporting the minor/major pause and
   copied-words breakdown and the write-barrier counters, plus a
   --no-barrier-elim variant to price the static elimination pass.
   Emits BENCH_3.json.

   Environment knobs (used by the CI gen job):
     BENCH_GEN_ITERS      destroy replacement iterations (default 400)
     BENCH_GEN_TAKL_HEAP  takl semispace words (default 3000)
     BENCH_GEN_OUT        output JSON path (default BENCH_3.json) *)

type gen_run = {
  gr_snap : T.Json.t;
  gr_out : string;
  gr_table_bytes : int;
  gr_mean_pause : float; (* gc.pause_ns mean: all collections of the run *)
  gr_mean_words : float; (* gc.words_copied mean *)
  gr_mean_minor_pause : float;
  gr_mean_minor_words : float;
  gr_minors : int;
  gr_static_barriers : int;
  gr_static_elided : int;
}

let gen_bench () =
  hr ();
  let getenv_int name default =
    match Sys.getenv_opt name with
    | Some s -> ( match int_of_string_opt s with Some v -> v | None -> default)
    | None -> default
  in
  let iters = getenv_int "BENCH_GEN_ITERS" 400 in
  let out_path = Option.value ~default:"BENCH_3.json" (Sys.getenv_opt "BENCH_GEN_OUT") in
  printf "GEN: generational collection vs full compaction (warmup + median of 5)\n\n";
  let progs =
    [
      ( "destroy",
        Programs.Destroy_src.make ~branch:4 ~depth:5 ~replace_depth:2 ~iterations:iters,
        12000 );
      ( "takl",
        Programs.Takl_src.make ~n1:14 ~n2:10 ~n3:4
          ~repeats:(getenv_int "BENCH_GEN_TAKL_REPEATS" 60)
          ~ballast:(getenv_int "BENCH_GEN_TAKL_BALLAST" 100),
        getenv_int "BENCH_GEN_TAKL_HEAP" 1200 );
    ]
  in
  let run_mode ~src ~heap ~gen ~elim =
    let options =
      {
        Driver.Compile.default_options with
        optimize = true;
        barrier_elim = elim;
        heap_words = heap;
      }
    in
    (* Compile inside telemetry so the elimination-pass counters record. *)
    let img = ref None in
    let elim_seen = ref 0 and elim_elided = ref 0 in
    with_telemetry (fun () ->
        img := Some (Driver.Compile.compile ~options src);
        elim_seen := T.Metrics.counter_value "barrier_elim.stores_seen";
        elim_elided := T.Metrics.counter_value "barrier_elim.stores_elided");
    let img = Option.get !img in
    let fresh () =
      let st = Vm.Interp.create img in
      if gen then Gc.Nursery.install st else Gc.Cheney.install st;
      st
    in
    (* Wall clock with telemetry off: one warmup, then the median of 5. *)
    let wall =
      median_wall (fun () ->
          let st = fresh () in
          let t0 = Unix.gettimeofday () in
          Vm.Interp.run st;
          Unix.gettimeofday () -. t0)
    in
    (* One instrumented run for the collector counters and histograms. *)
    let result = ref None in
    with_telemetry (fun () ->
        let st = fresh () in
        Vm.Interp.run st;
        let c = T.Metrics.counter_value in
        let mean name = T.Metrics.mean (T.Metrics.histogram name) in
        let snap =
          T.Json.Obj
            [
              ("generational", T.Json.Bool gen);
              ("barrier_elim", T.Json.Bool elim);
              ("wall_s_median", T.Json.Float wall);
              ("table_bytes", T.Json.Int (E.total_table_bytes img.Vm.Image.tables));
              ("collections", T.Json.Int (c "gc.collections"));
              ("minor_collections", T.Json.Int (c "gc.minor_collections"));
              ("major_collections", T.Json.Int (c "gc.major_collections"));
              ("pause_ns", hist_json "gc.pause_ns");
              ("minor_pause_ns", hist_json "gc.minor_pause_ns");
              ("major_pause_ns", hist_json "gc.major_pause_ns");
              ("words_copied", hist_json "gc.words_copied");
              ("minor_words", hist_json "gc.minor_words");
              ("major_words", hist_json "gc.major_words");
              ("remset_roots", hist_json "gc.remset_roots");
              ( "barriers",
                T.Json.Obj
                  [
                    ("static_emitted", T.Json.Int img.Vm.Image.barriers);
                    ("static_elided", T.Json.Int img.Vm.Image.barriers_elided);
                    ("stores_seen", T.Json.Int !elim_seen);
                    ("stores_elided", T.Json.Int !elim_elided);
                    ("executed", T.Json.Int (c "gc.barrier_execs"));
                    ("remset_inserts", T.Json.Int (c "gc.remset_inserts"));
                  ] );
            ]
        in
        result :=
          Some
            {
              gr_snap = snap;
              gr_out = Vm.Interp.output st;
              gr_table_bytes = E.total_table_bytes img.Vm.Image.tables;
              gr_mean_pause = mean "gc.pause_ns";
              gr_mean_words = mean "gc.words_copied";
              gr_mean_minor_pause = mean "gc.minor_pause_ns";
              gr_mean_minor_words = mean "gc.minor_words";
              gr_minors = c "gc.minor_collections";
              gr_static_barriers = img.Vm.Image.barriers;
              gr_static_elided = img.Vm.Image.barriers_elided;
            });
    Option.get !result
  in
  let per_prog =
    List.map
      (fun (name, src, heap) ->
        printf "%s (heap %d words/semispace):\n" name heap;
        let full = run_mode ~src ~heap ~gen:false ~elim:true in
        let g = run_mode ~src ~heap ~gen:true ~elim:true in
        let noelim = run_mode ~src ~heap ~gen:true ~elim:false in
        if full.gr_out <> g.gr_out || full.gr_out <> noelim.gr_out then
          printf "  !! OUTPUT MISMATCH between modes\n";
        let tables_identical = full.gr_table_bytes = g.gr_table_bytes in
        let minor_below =
          g.gr_minors > 0
          && g.gr_mean_minor_pause < full.gr_mean_pause
          && g.gr_mean_minor_words < full.gr_mean_words
        in
        printf "  full : mean pause %8.1f us, mean %7.0f words copied/collection\n"
          (full.gr_mean_pause /. 1e3) full.gr_mean_words;
        printf "  minor: mean pause %8.1f us, mean %7.0f words promoted/minor (%d minors)\n"
          (g.gr_mean_minor_pause /. 1e3) g.gr_mean_minor_words g.gr_minors;
        if full.gr_mean_pause > 0.0 then
          printf "  minor/full ratio: pause %.2fx, words %.2fx%s\n"
            (g.gr_mean_minor_pause /. full.gr_mean_pause)
            (g.gr_mean_minor_words /. full.gr_mean_words)
            (if minor_below then "  (minor < full: ok)"
             else "  (!! minor not below full)");
        let total = g.gr_static_barriers + g.gr_static_elided in
        if total > 0 then
          printf "  barrier elim: %d of %d pointer stores barrier-free (%.1f%%)\n"
            g.gr_static_elided total
            (100.0 *. float_of_int g.gr_static_elided /. float_of_int total);
        printf "  tables: %d bytes gen, %d bytes full%s\n" g.gr_table_bytes
          full.gr_table_bytes
          (if tables_identical then " (byte-identical)" else " (!! DIFFER)");
        printf "\n";
        ( name,
          T.Json.Obj
            [
              ("heap_words", T.Json.Int heap);
              ("full", full.gr_snap);
              ("gen", g.gr_snap);
              ("gen_no_barrier_elim", noelim.gr_snap);
              ( "outputs_match",
                T.Json.Bool (full.gr_out = g.gr_out && full.gr_out = noelim.gr_out) );
              ("tables_identical", T.Json.Bool tables_identical);
              ( "minor_vs_full",
                T.Json.Obj
                  [
                    ( "pause_ratio",
                      T.Json.Float
                        (if full.gr_mean_pause > 0.0 then
                           g.gr_mean_minor_pause /. full.gr_mean_pause
                         else 0.0) );
                    ( "words_ratio",
                      T.Json.Float
                        (if full.gr_mean_words > 0.0 then
                           g.gr_mean_minor_words /. full.gr_mean_words
                         else 0.0) );
                    ("minor_below_full", T.Json.Bool minor_below);
                  ] );
            ] ))
      progs
  in
  let doc =
    T.Json.Obj
      [
        ("bench", T.Json.Str "generational_vs_full");
        ( "params",
          T.Json.Obj
            [
              ("destroy_iterations", T.Json.Int iters);
              ("optimize", T.Json.Bool true);
              ("warmup", T.Json.Int 1);
              ("reps", T.Json.Int 5);
              ( "clock_granularity_ns",
                T.Json.Int (Int64.to_int (T.Control.granularity_ns ())) );
            ] );
        ("programs", T.Json.Obj per_prog);
      ]
  in
  let oc = open_out out_path in
  output_string oc (T.Json.to_string doc);
  output_string oc "\n";
  close_out oc;
  printf "wrote %s\n" out_path

(* ------------------------------------------------------------------ *)
(* MUTATOR: threaded-code engine vs switch interpreter (BENCH_4.json)  *)
(* ------------------------------------------------------------------ *)

(* The execution-engine trajectory target: the gc-intensive destroy and
   takl configurations run on the pre-translated threaded engine and on
   the reference switch interpreter — same image, same gc tables, same
   collector — reporting median wall time, mutator throughput
   (instructions per second), the speedup ratio, and the fusion counters.
   Output, instruction count and collection count must agree exactly
   between engines. Emits BENCH_4.json.

   Environment knobs (used by the CI bench-smoke step):
     BENCH_MUT_ITERS         destroy replacement iterations (default 400)
     BENCH_MUT_TAKL_REPEATS  takl repeats (default 60)
     BENCH_MUT_REPS          timed reps per engine (default 5)
     BENCH_MUT_OUT           output JSON path (default BENCH_4.json) *)

type mut_run = {
  mr_wall : float; (* median wall seconds *)
  mr_out : string;
  mr_icount : int;
  mr_collections : int;
  mr_snap : T.Json.t;
}

let mutator () =
  hr ();
  let getenv_int name default =
    match Sys.getenv_opt name with
    | Some s -> ( match int_of_string_opt s with Some v -> v | None -> default)
    | None -> default
  in
  let iters = getenv_int "BENCH_MUT_ITERS" 400 in
  let reps = getenv_int "BENCH_MUT_REPS" 5 in
  let out_path = Option.value ~default:"BENCH_4.json" (Sys.getenv_opt "BENCH_MUT_OUT") in
  printf "MUTATOR: threaded-code engine vs switch interpreter (warmup + median of %d)\n\n"
    reps;
  let progs =
    [
      ( "destroy",
        Programs.Destroy_src.make ~branch:4 ~depth:5 ~replace_depth:2 ~iterations:iters,
        12000 );
      ( "takl",
        Programs.Takl_src.make ~n1:14 ~n2:10 ~n3:4
          ~repeats:(getenv_int "BENCH_MUT_TAKL_REPEATS" 60)
          ~ballast:(getenv_int "BENCH_MUT_TAKL_BALLAST" 100),
        getenv_int "BENCH_MUT_TAKL_HEAP" 1200 );
    ]
  in
  let per_prog =
    List.map
      (fun (name, src, heap) ->
        (* One image for both engines: the gc tables are literally the same
           object, and the threaded engine's one-slot translation cache
           amortizes across the timed reps exactly as in production. *)
        let img = compile ~optimize:true ~heap src in
        let run_engine ~threaded =
          let fresh () =
            let st = Vm.Interp.create img in
            Gc.Cheney.install st;
            st
          in
          let exec st = if threaded then Vm.Threaded.run st else Vm.Interp.run st in
          (* Wall clock with telemetry off: one warmup (absorbs the one-time
             translation), then the median of [reps]. *)
          let wall =
            median_wall ~reps (fun () ->
                let st = fresh () in
                let t0 = Unix.gettimeofday () in
                exec st;
                Unix.gettimeofday () -. t0)
          in
          (* One instrumented run for counters; re-translate explicitly so
             translation cost and fusion statistics record under telemetry
             (the cached engine skips translation). *)
          let result = ref None in
          with_telemetry (fun () ->
              if threaded then ignore (Vm.Threaded.translate img);
              let st = fresh () in
              exec st;
              let c = T.Metrics.counter_value in
              let icount = st.Vm.Interp.icount in
              let insns_per_s = float_of_int icount /. wall in
              let snap =
                T.Json.Obj
                  [
                    ("engine", T.Json.Str (if threaded then "threaded" else "switch"));
                    ("wall_s_median", T.Json.Float wall);
                    ("instructions", T.Json.Int icount);
                    ("insns_per_sec", T.Json.Float insns_per_s);
                    ("collections", T.Json.Int (c "gc.collections"));
                    ("allocations", T.Json.Int (c "vm.allocations"));
                    ( "fusion",
                      T.Json.Obj
                        ([
                           ("translate_ns", T.Json.Int (c "vm.translate_ns"));
                           ("closures", T.Json.Int (c "vm.closures"));
                           ("fused_pairs", T.Json.Int (c "vm.fused_pairs"));
                           ("fused_execs", T.Json.Int (c "vm.fused_execs"));
                         ]
                        @ List.map
                            (fun k -> (k, T.Json.Int (c ("vm.fuse." ^ k))))
                            Vm.Threaded.fuse_kind_names) );
                  ]
              in
              result :=
                Some
                  {
                    mr_wall = wall;
                    mr_out = Vm.Interp.output st;
                    mr_icount = icount;
                    mr_collections = st.Vm.Interp.gc.Vm.Interp.collections;
                    mr_snap = snap;
                  });
          Option.get !result
        in
        let th = run_engine ~threaded:true in
        let sw = run_engine ~threaded:false in
        let outputs_match = th.mr_out = sw.mr_out in
        let icount_match = th.mr_icount = sw.mr_icount in
        let collections_match = th.mr_collections = sw.mr_collections in
        if not (outputs_match && icount_match && collections_match) then
          printf "  !! ENGINE DIVERGENCE on %s (output %b, icount %b, collections %b)\n"
            name outputs_match icount_match collections_match;
        let speedup = sw.mr_wall /. th.mr_wall in
        let mips w = float_of_int th.mr_icount /. w /. 1e6 in
        printf "%s (heap %d words/semispace, %d insns, %d collections):\n" name heap
          th.mr_icount th.mr_collections;
        printf "  switch  : %8.2f ms  %8.1f M insns/s\n" (sw.mr_wall *. 1e3)
          (mips sw.mr_wall);
        printf "  threaded: %8.2f ms  %8.1f M insns/s  (%.2fx)\n" (th.mr_wall *. 1e3)
          (mips th.mr_wall) speedup;
        printf "\n";
        ( name,
          T.Json.Obj
            [
              ("heap_words", T.Json.Int heap);
              ("threaded", th.mr_snap);
              ("switch", sw.mr_snap);
              ("speedup", T.Json.Float speedup);
              ("outputs_match", T.Json.Bool outputs_match);
              ("icount_match", T.Json.Bool icount_match);
              ("collections_match", T.Json.Bool collections_match);
            ] ))
      progs
  in
  let doc =
    T.Json.Obj
      [
        ("bench", T.Json.Str "threaded_vs_switch");
        ( "params",
          T.Json.Obj
            [
              ("destroy_iterations", T.Json.Int iters);
              ("optimize", T.Json.Bool true);
              ("warmup", T.Json.Int 1);
              ("reps", T.Json.Int reps);
              ( "clock_granularity_ns",
                T.Json.Int (Int64.to_int (T.Control.granularity_ns ())) );
            ] );
        ("programs", T.Json.Obj per_prog);
      ]
  in
  let oc = open_out out_path in
  output_string oc (T.Json.to_string doc);
  output_string oc "\n";
  close_out oc;
  printf "wrote %s\n" out_path

(* ------------------------------------------------------------------ *)
(* PAUSES: pause-time distributions per collector mode (BENCH_5.json)  *)
(* ------------------------------------------------------------------ *)

(* The observability baseline for the incremental-collection trajectory
   item: per-mode pause percentiles (p50/p90/p99/max from the log-scaled
   bucket histograms, immune to the sample cap) on the gc-intensive destroy
   and takl configurations, under full compaction and under generational
   collection with the minor/full split broken out. A second section runs
   destroy with a long-lived ballast list under the allocation-site
   profiler and records that the profile ranks the ballast site's survival
   rate above every short-lived tree site — the signal the pretenuring
   item consumes. Emits BENCH_5.json.

   Environment knobs (used by the CI profiling job):
     BENCH_PAUSE_ITERS    destroy replacement iterations (default 400)
     BENCH_PAUSE_BALLAST  ballast list length for the profile run (default 600)
     BENCH_PAUSE_OUT      output JSON path (default BENCH_5.json) *)

let pauses () =
  hr ();
  let getenv_int name default =
    match Sys.getenv_opt name with
    | Some s -> ( match int_of_string_opt s with Some v -> v | None -> default)
    | None -> default
  in
  let iters = getenv_int "BENCH_PAUSE_ITERS" 400 in
  let out_path =
    Option.value ~default:"BENCH_5.json" (Sys.getenv_opt "BENCH_PAUSE_OUT")
  in
  printf "PAUSES: pause-time distributions per collector mode\n\n";
  let pct_json name =
    match T.Metrics.find_histogram name with
    | Some h when h.T.Metrics.h_count > 0 ->
        T.Json.Obj
          [
            ("count", T.Json.Int h.T.Metrics.h_count);
            ("p50_ns", T.Json.Float (T.Metrics.percentile h 0.50));
            ("p90_ns", T.Json.Float (T.Metrics.percentile h 0.90));
            ("p99_ns", T.Json.Float (T.Metrics.percentile h 0.99));
            ("max_ns", T.Json.Float h.T.Metrics.h_max);
            ("mean_ns", T.Json.Float (T.Metrics.mean h));
          ]
    | _ -> T.Json.Obj [ ("count", T.Json.Int 0) ]
  in
  let print_pct label name =
    match T.Metrics.find_histogram name with
    | Some h when h.T.Metrics.h_count > 0 ->
        printf "    %-6s n=%-5d p50 %8.1f us  p90 %8.1f us  p99 %8.1f us  max %8.1f us\n"
          label h.T.Metrics.h_count
          (T.Metrics.percentile h 0.50 /. 1e3)
          (T.Metrics.percentile h 0.90 /. 1e3)
          (T.Metrics.percentile h 0.99 /. 1e3)
          (h.T.Metrics.h_max /. 1e3)
    | _ -> ()
  in
  let progs =
    [
      ( "destroy",
        Programs.Destroy_src.make ~branch:4 ~depth:5 ~replace_depth:2 ~iterations:iters,
        12000 );
      ( "takl",
        Programs.Takl_src.make ~n1:14 ~n2:10 ~n3:4
          ~repeats:(getenv_int "BENCH_PAUSE_TAKL_REPEATS" 60)
          ~ballast:(getenv_int "BENCH_PAUSE_TAKL_BALLAST" 100),
        getenv_int "BENCH_PAUSE_TAKL_HEAP" 1200 );
    ]
  in
  let run_mode ~src ~heap ~gen =
    let img = compile ~optimize:true ~heap src in
    let result = ref None in
    with_telemetry (fun () ->
        let st = Vm.Interp.create img in
        if gen then Gc.Nursery.install st else Gc.Cheney.install st;
        Vm.Interp.run st;
        let c = T.Metrics.counter_value in
        printf "  %s:\n" (if gen then "gen" else "flat");
        print_pct "all" "gc.pause_ns";
        print_pct "minor" "gc.minor_pause_ns";
        print_pct "full" "gc.major_pause_ns";
        result :=
          Some
            ( Vm.Interp.output st,
              T.Json.Obj
                [
                  ("collections", T.Json.Int (c "gc.collections"));
                  ("minor_collections", T.Json.Int (c "gc.minor_collections"));
                  ("major_collections", T.Json.Int (c "gc.major_collections"));
                  ("pause_ns", pct_json "gc.pause_ns");
                  ("minor_pause_ns", pct_json "gc.minor_pause_ns");
                  ("major_pause_ns", pct_json "gc.major_pause_ns");
                ] ));
    Option.get !result
  in
  let per_prog =
    List.map
      (fun (name, src, heap) ->
        printf "%s (heap %d words/semispace):\n" name heap;
        let out_flat, flat = run_mode ~src ~heap ~gen:false in
        let out_gen, gen = run_mode ~src ~heap ~gen:true in
        if out_flat <> out_gen then printf "  !! OUTPUT MISMATCH between modes\n";
        printf "\n";
        ( name,
          T.Json.Obj
            [
              ("heap_words", T.Json.Int heap);
              ("flat", flat);
              ("gen", gen);
              ("outputs_match", T.Json.Bool (out_flat = out_gen));
            ] ))
      progs
  in
  (* --- the survival-profile section: destroy with a long-lived ballast
     list, flat mode so every collection copies every survivor. --- *)
  let ballast = getenv_int "BENCH_PAUSE_BALLAST" 600 in
  let prof_src =
    Programs.Destroy_src.make_ballast ~ballast ~branch:4 ~depth:5 ~replace_depth:2
      ~iterations:iters
  in
  let img = compile ~optimize:true ~heap:12000 prof_src in
  let p = Driver.Compile.profile_for img in
  with_telemetry (fun () -> ignore (Driver.Compile.run ~profile:p img));
  let rate_of pred =
    Array.to_list (Array.mapi (fun i s -> (s, p.Profile.stats.(i))) p.Profile.sites)
    |> List.filter (fun ((s : Profile.site), _) -> pred s.Profile.s_proc)
    |> List.map (fun (_, st) -> Profile.survival_rate st)
  in
  let ballast_rate =
    match rate_of (fun proc -> proc = "MkBallast") with [ r ] -> r | _ -> 0.0
  in
  let tree_rates = rate_of (fun proc -> proc = "MkTree") in
  let tree_max = List.fold_left max 0.0 tree_rates in
  let ordering_ok = tree_rates <> [] && ballast_rate > tree_max in
  printf "profile (destroy + %d-node ballast, flat):\n" ballast;
  printf "  ballast site survival : %5.1f%%\n" (100.0 *. ballast_rate);
  printf "  max tree site survival: %5.1f%%  %s\n\n" (100.0 *. tree_max)
    (if ordering_ok then "(ballast > cons: ok)" else "(!! ordering violated)");
  let doc =
    T.Json.Obj
      [
        ("bench", T.Json.Str "pause_distributions");
        ( "params",
          T.Json.Obj
            [
              ("destroy_iterations", T.Json.Int iters);
              ("ballast", T.Json.Int ballast);
              ("optimize", T.Json.Bool true);
              ( "clock_granularity_ns",
                T.Json.Int (Int64.to_int (T.Control.granularity_ns ())) );
            ] );
        ("programs", T.Json.Obj per_prog);
        ( "survival_profile",
          T.Json.Obj
            [
              ("program", T.Json.Str "destroy_ballast");
              ("ballast_survival_rate", T.Json.Float ballast_rate);
              ("max_tree_survival_rate", T.Json.Float tree_max);
              ("ballast_above_cons", T.Json.Bool ordering_ok);
              ("profile", Profile.to_json p);
            ] );
      ]
  in
  let oc = open_out out_path in
  output_string oc (T.Json.to_string doc);
  output_string oc "\n";
  close_out oc;
  printf "wrote %s\n" out_path

(* ------------------------------------------------------------------ *)
(* PRESSURE: adaptive growth vs a big fixed heap (BENCH_7.json)        *)
(* ------------------------------------------------------------------ *)

(* The graceful-degradation acceptance gate as a benchmark: a workload
   whose live set far exceeds the tiny starting semispace, run three
   ways on the identical image —

     fixed   a big fixed semispace (the reference),
     grown   a tiny starting semispace with adaptive growth capped at
             the reference size (must match the reference on output,
             icount AND collection count: flat-heap growth is eager, so
             it reproduces the big heap's collection points exactly),
     storm   the grown configuration under an allocation-failure storm
             (a forced collect/grow slow path every Nth allocation;
             output must still match, collections legitimately differ).

   Reports resizes, words grown, collections and pause percentiles per
   run. Emits BENCH_7.json.

   Environment knobs (used by the CI bench-smoke step):
     BENCH_PRESSURE_ITERS  destroy replacement iterations (default 400)
     BENCH_PRESSURE_HEAP   reference semispace words (default 200000)
     BENCH_PRESSURE_START  starting semispace words (default 2000)
     BENCH_PRESSURE_STORM  storm period in allocations (default 64)
     BENCH_PRESSURE_OUT    output JSON path (default BENCH_7.json) *)

type pressure_run = {
  pr_name : string;
  pr_wall : float;
  pr_out : string;
  pr_icount : int;
  pr_collections : int;
  pr_resizes : int;
  pr_grow_words : int;
  pr_final_semi : int;
  pr_pause_p50 : float;
  pr_pause_max : float;
}

let pressure_bench () =
  hr ();
  let getenv_int name default =
    match Option.bind (Sys.getenv_opt name) int_of_string_opt with
    | Some v -> v
    | None -> default
  in
  let iters = getenv_int "BENCH_PRESSURE_ITERS" 400 in
  let big = getenv_int "BENCH_PRESSURE_HEAP" 200_000 in
  let start = getenv_int "BENCH_PRESSURE_START" 2_000 in
  let storm = getenv_int "BENCH_PRESSURE_STORM" 64 in
  let out_path =
    Option.value ~default:"BENCH_7.json" (Sys.getenv_opt "BENCH_PRESSURE_OUT")
  in
  (* Live array ballast worth several starting semispaces, plus tree
     churn: the run cannot complete without growing. *)
  let intchunk = 1024 in
  let chunks = max 1 (6 * big / 10 / (intchunk + 6)) in
  (* Each replacement churns ~370 words of short-lived subtree, so the
     default 400 iterations push ~1.5 reference semispaces of allocation
     through ~0.4 semispaces of headroom: several full collections. *)
  let src =
    Programs.Destroy_src.make_intballast ~intballast:chunks ~intchunk ~branch:4
      ~depth:5 ~replace_depth:2 ~iterations:iters
  in
  printf "PRESSURE: tiny heap + adaptive growth vs %d-word fixed semispace\n" big;
  printf "(%d chunks x %d words live ballast, %d replacements, start %d words)\n\n"
    chunks intchunk iters start;
  let one name ~heap ~grow ~storm_every =
    let img = compile ~optimize:true ~heap src in
    let result = ref None in
    with_telemetry (fun () ->
        let st = Vm.Interp.create img in
        if grow then begin
          st.Vm.Interp.heap_resize <- true;
          st.Vm.Interp.heap_max_words <- big;
          st.Vm.Interp.heap_min_words <- st.Vm.Interp.from_words
        end;
        if storm_every > 0 then st.Vm.Interp.alloc_pressure_every <- storm_every;
        Gc.Cheney.install st;
        let t0 = Unix.gettimeofday () in
        Vm.Interp.run st;
        let wall = Unix.gettimeofday () -. t0 in
        let pct p =
          match T.Metrics.find_histogram "gc.pause_ns" with
          | Some h when h.T.Metrics.h_count > 0 ->
              if p >= 1.0 then h.T.Metrics.h_max else T.Metrics.percentile h p
          | _ -> 0.0
        in
        result :=
          Some
            {
              pr_name = name;
              pr_wall = wall;
              pr_out = Vm.Interp.output st;
              pr_icount = st.Vm.Interp.icount;
              pr_collections = st.Vm.Interp.gc.Vm.Interp.collections;
              pr_resizes = st.Vm.Interp.gc.Vm.Interp.resizes;
              pr_grow_words = T.Metrics.counter_value "gc_pressure.grow_words";
              pr_final_semi = st.Vm.Interp.from_words;
              pr_pause_p50 = pct 0.50;
              pr_pause_max = pct 1.0;
            });
    Option.get !result
  in
  let fixed = one "fixed" ~heap:big ~grow:false ~storm_every:0 in
  let grown = one "grown" ~heap:start ~grow:true ~storm_every:0 in
  let stormy = one "storm" ~heap:start ~grow:true ~storm_every:storm in
  if fixed.pr_collections = 0 then
    failwith "pressure bench: reference never collected — sizing bug";
  if grown.pr_resizes = 0 then
    failwith "pressure bench: grown run never resized — sizing bug";
  (* The acceptance gate: growth is observationally invisible. *)
  if grown.pr_out <> fixed.pr_out then
    failwith "pressure bench: output diverges under growth";
  if grown.pr_icount <> fixed.pr_icount then
    failwith "pressure bench: icount diverges under growth";
  if grown.pr_collections <> fixed.pr_collections then
    failwith "pressure bench: collections diverge under growth";
  if stormy.pr_out <> fixed.pr_out then
    failwith "pressure bench: output diverges under allocation storm";
  let runs = [ fixed; grown; stormy ] in
  List.iter
    (fun r ->
      printf
        "  %-6s %9d icount, %3d collections, %3d resizes (%7d words grown), \
         final semi %7d, %6.0f us p50 pause, %.3f s wall\n"
        r.pr_name r.pr_icount r.pr_collections r.pr_resizes r.pr_grow_words
        r.pr_final_semi (r.pr_pause_p50 /. 1e3) r.pr_wall)
    runs;
  printf "\n  growth invisible: output, icount and collections match the \
          fixed heap\n\n";
  let doc =
    T.Json.Obj
      [
        ("bench", T.Json.Str "memory_pressure_growth");
        ( "params",
          T.Json.Obj
            [
              ("iterations", T.Json.Int iters);
              ("reference_semi_words", T.Json.Int big);
              ("start_semi_words", T.Json.Int start);
              ("storm_every", T.Json.Int storm);
              ("ballast_chunks", T.Json.Int chunks);
              ("chunk_words", T.Json.Int intchunk);
            ] );
        ("outputs_match", T.Json.Bool true);
        ("icounts_match", T.Json.Bool true);
        ("collections_match", T.Json.Bool true);
        ( "runs",
          T.Json.List
            (List.map
               (fun r ->
                 T.Json.Obj
                   [
                     ("name", T.Json.Str r.pr_name);
                     ("wall_s", T.Json.Float r.pr_wall);
                     ("icount", T.Json.Int r.pr_icount);
                     ("collections", T.Json.Int r.pr_collections);
                     ("resizes", T.Json.Int r.pr_resizes);
                     ("grow_words", T.Json.Int r.pr_grow_words);
                     ("final_semi_words", T.Json.Int r.pr_final_semi);
                     ("pause_p50_ns", T.Json.Float r.pr_pause_p50);
                     ("pause_max_ns", T.Json.Float r.pr_pause_max);
                   ])
               runs) );
      ]
  in
  let oc = open_out out_path in
  output_string oc (T.Json.to_string doc);
  output_string oc "\n";
  close_out oc;
  printf "wrote %s\n" out_path

(* ------------------------------------------------------------------ *)
(* PGO: the closed profile→policy loop (BENCH_8.json)                  *)
(* ------------------------------------------------------------------ *)

(* The profile-guided placement trajectory target: run destroy-ballast
   under the generational collector with the allocation-site profiler on,
   derive an mm-policy from the measured lifetimes (the same pipeline as
   `policygen`), and re-run with the policy installed. Placement is a
   pure runtime switch, so output and instruction count must be
   byte-identical; the long-lived ballast now allocates straight into the
   old generation, so total minor promotion (gc.minor_words sum) must
   drop by at least 30%. The in-run adaptive mode must land the same
   cut. The assertions fail the process (exit 1), so CI gates on them.

     BENCH_PGO_ITERS      destroy iterations (default 400)
     BENCH_PGO_BALLAST    ballast list length (default 15000)
     BENCH_PGO_HEAP       words per semispace (default 100000)
     BENCH_PGO_NURSERY    nursery words (default 4000 — small enough that
                          building the ballast spans several minors, so
                          the adaptive trigger fires while the long-lived
                          population is still being allocated)
     BENCH_PGO_OUT        output JSON path (default BENCH_8.json) *)

let pgo () =
  hr ();
  let getenv_int name default =
    match Sys.getenv_opt name with
    | Some s -> ( match int_of_string_opt s with Some v -> v | None -> default)
    | None -> default
  in
  let iters = getenv_int "BENCH_PGO_ITERS" 400 in
  let ballast = getenv_int "BENCH_PGO_BALLAST" 15000 in
  let heap = getenv_int "BENCH_PGO_HEAP" 100000 in
  let nursery = getenv_int "BENCH_PGO_NURSERY" 4000 in
  let out_path = Option.value ~default:"BENCH_8.json" (Sys.getenv_opt "BENCH_PGO_OUT") in
  printf "PGO: closed profile->policy loop on destroy-ballast (gen collector)\n\n";
  let src =
    Programs.Destroy_src.make_ballast ~ballast ~branch:4 ~depth:5 ~replace_depth:2
      ~iterations:iters
  in
  let options =
    { Driver.Compile.default_options with optimize = true; heap_words = heap }
  in
  let img = Driver.Compile.compile ~options src in
  let sites = Driver.Compile.sites_for img in
  (* One instrumented generational run; [placement] installs decision
     codes, [adaptive] arms the in-run trigger, [profile] records
     lifetimes. Returns the output, icount, and collector counters. *)
  let instrumented ?placement ?adaptive ?profile () =
    let result = ref None in
    with_telemetry (fun () ->
        let st = Vm.Interp.create img in
        st.Vm.Interp.prof <- profile;
        (match placement with
        | Some codes -> Vm.Interp.set_placement st ~source:"file" codes
        | None -> ());
        (match adaptive with
        | Some n -> st.Vm.Interp.adaptive_after <- n
        | None -> ());
        Gc.Nursery.install ~nursery_words:nursery st;
        Vm.Interp.run st;
        let c = T.Metrics.counter_value in
        let sum name = (T.Metrics.histogram name).T.Metrics.h_sum in
        result :=
          Some
            ( Vm.Interp.output st,
              st.Vm.Interp.icount,
              sum "gc.minor_words",
              T.Json.Obj
                [
                  ("minor_collections", T.Json.Int (c "gc.minor_collections"));
                  ("major_collections", T.Json.Int (c "gc.major_collections"));
                  ("minor_words_total", T.Json.Float (sum "gc.minor_words"));
                  ("words_copied_total", T.Json.Float (sum "gc.words_copied"));
                  ("pretenured_words", T.Json.Int (c "gc.pretenured_words"));
                  ("pool_words", T.Json.Int (c "gc.pool_words"));
                  ("pretenure_sites", T.Json.Int (c "gc.pretenure_sites"));
                  ("pool_sites", T.Json.Int (c "gc.pool_sites"));
                  ("minor_pause_ns", hist_json "gc.minor_pause_ns");
                  ("pause_ns", hist_json "gc.pause_ns");
                ] ));
    Option.get !result
  in
  (* Step 1: profiled baseline. The profiler measures; placement is off,
     so this is also the no-policy reference for the identity checks. *)
  let prof = Driver.Compile.profile_for img in
  let base_out, base_icount, base_minor, base_snap = instrumented ~profile:prof () in
  (* Step 2: derive the policy from the measured lifetimes. *)
  let policy = Policy.derive_from_stats prof in
  let codes, matched = Policy.decisions_for policy sites in
  let placed = Array.length (Array.of_list (List.filter (fun c -> c <> Policy.nursery_code) (Array.to_list codes))) in
  (* Step 3: the policy run, and the adaptive run that must converge. *)
  let pol_out, pol_icount, pol_minor, pol_snap = instrumented ~placement:codes () in
  let ad_prof = Driver.Compile.profile_for img in
  let ad_out, ad_icount, ad_minor, ad_snap =
    instrumented ~adaptive:2 ~profile:ad_prof ()
  in
  (* Wall-clock medians with telemetry off (placement is live either way). *)
  let wall ?placement () =
    median_wall (fun () ->
        let st = Vm.Interp.create img in
        (match placement with
        | Some codes -> Vm.Interp.set_placement st ~source:"file" codes
        | None -> ());
        Gc.Nursery.install ~nursery_words:nursery st;
        let t0 = Unix.gettimeofday () in
        Vm.Interp.run st;
        Unix.gettimeofday () -. t0)
  in
  let base_wall = wall () in
  let pol_wall = wall ~placement:codes () in
  let reduction = if base_minor > 0.0 then 1.0 -. (pol_minor /. base_minor) else 0.0 in
  let ad_reduction = if base_minor > 0.0 then 1.0 -. (ad_minor /. base_minor) else 0.0 in
  let failures = ref [] in
  let assert_ what ok = if not ok then failures := what :: !failures in
  assert_ "policy output identical" (pol_out = base_out);
  assert_ "policy icount identical" (pol_icount = base_icount);
  assert_ "adaptive output identical" (ad_out = base_out);
  assert_ "adaptive icount identical" (ad_icount = base_icount);
  assert_ "policy placed at least one site" (placed > 0);
  assert_ "minor promotion cut by >= 30%" (reduction >= 0.30);
  printf "sites        : %d static, %d in policy, %d placed off-nursery\n"
    (Array.length sites) matched placed;
  printf "minor words  : %.0f baseline -> %.0f policy (%.1f%% cut), %.0f adaptive (%.1f%% cut)\n"
    base_minor pol_minor (100.0 *. reduction) ad_minor (100.0 *. ad_reduction);
  printf "wall median  : %.1f ms baseline -> %.1f ms policy\n" (base_wall *. 1e3)
    (pol_wall *. 1e3);
  printf "identity     : output %s, icount %s\n"
    (if pol_out = base_out && ad_out = base_out then "identical" else "!! DIFFERS")
    (if pol_icount = base_icount && ad_icount = base_icount then "identical"
     else "!! DIFFERS");
  let doc =
    T.Json.Obj
      [
        ("bench", T.Json.Str "pgo_placement");
        ( "params",
          T.Json.Obj
            [
              ("destroy_iterations", T.Json.Int iters);
              ("ballast", T.Json.Int ballast);
              ("heap_words", T.Json.Int heap);
              ("optimize", T.Json.Bool true);
              ("adaptive_after_minors", T.Json.Int 2);
              ("nursery_words", T.Json.Int nursery);
              ("warmup", T.Json.Int 1);
              ("reps", T.Json.Int 5);
            ] );
        ("policy", Policy.to_json policy);
        ("sites_matched", T.Json.Int matched);
        ("sites_placed", T.Json.Int placed);
        ("outputs_match", T.Json.Bool (pol_out = base_out && ad_out = base_out));
        ( "icounts_match",
          T.Json.Bool (pol_icount = base_icount && ad_icount = base_icount) );
        ("minor_words_reduction", T.Json.Float reduction);
        ("adaptive_minor_words_reduction", T.Json.Float ad_reduction);
        ("wall_s_median_baseline", T.Json.Float base_wall);
        ("wall_s_median_policy", T.Json.Float pol_wall);
        ("baseline", base_snap);
        ("with_policy", pol_snap);
        ("adaptive", ad_snap);
      ]
  in
  let oc = open_out out_path in
  output_string oc (T.Json.to_string doc);
  output_string oc "\n";
  close_out oc;
  printf "wrote %s\n" out_path;
  if !failures <> [] then begin
    List.iter (fun f -> printf "!! PGO ASSERTION FAILED: %s\n" f) !failures;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* PAUSE-BUDGET: incremental slicing vs stop-the-world (BENCH_9.json)  *)
(* ------------------------------------------------------------------ *)

(* The incremental-collector trajectory target: destroy with a long-lived
   ballast list (the heaviest pause workload — every STW collection copies
   the whole ballast) and takl, each run under five collector modes over
   the identical image: stw-flat, stw-gen, and incremental at pause
   budgets of 100 us, 500 us, and 2 ms. The bench asserts program output
   AND instruction count byte-identical across every mode (slices execute
   no guest instructions), and reports p50/p90/p99/max of the pause,
   slice, and flip histograms, mutator wall-clock overhead vs stw-flat,
   and budget compliance (overrun count, forced STW finishes). The
   headline acceptance ratio — stw-flat max pause over incremental max
   pause on destroy-ballast — is computed in-bench and the run fails if
   outputs or icounts diverge.

   Budget slack, documented: a slice checks the deadline once per mark
   granule (8 objects) / sweep chunk (512 words), so a slice can overshoot
   the budget by at most one granule's work plus the final heap verifier
   pass when MM_VERIFY_HEAP is set; the root-rescan flip is bounded by
   live roots, not the budget, and is reported separately (gc.flip_ns).

   Environment knobs (used by the CI incremental job):
     BENCH_PB_ITERS    destroy replacement iterations (default 1200)
     BENCH_PB_BALLAST  ballast list length (default 12000)
     BENCH_PB_REPS     reps per mode, min-max-pause rep kept (default 3)
     BENCH_PB_OUT      output JSON path (default BENCH_9.json) *)

let pause_budget_bench () =
  hr ();
  let getenv_int name default =
    match Sys.getenv_opt name with
    | Some s -> ( match int_of_string_opt s with Some v -> v | None -> default)
    | None -> default
  in
  let iters = getenv_int "BENCH_PB_ITERS" 1200 in
  let ballast = getenv_int "BENCH_PB_BALLAST" 12000 in
  let out_path =
    Option.value ~default:"BENCH_9.json" (Sys.getenv_opt "BENCH_PB_OUT")
  in
  printf "PAUSE-BUDGET: tri-color incremental slicing vs stop-the-world\n\n";
  let pct_json name =
    match T.Metrics.find_histogram name with
    | Some h when h.T.Metrics.h_count > 0 ->
        T.Json.Obj
          [
            ("count", T.Json.Int h.T.Metrics.h_count);
            ("p50_ns", T.Json.Float (T.Metrics.percentile h 0.50));
            ("p90_ns", T.Json.Float (T.Metrics.percentile h 0.90));
            ("p99_ns", T.Json.Float (T.Metrics.percentile h 0.99));
            ("max_ns", T.Json.Float h.T.Metrics.h_max);
            ("mean_ns", T.Json.Float (T.Metrics.mean h));
          ]
    | _ -> T.Json.Obj [ ("count", T.Json.Int 0) ]
  in
  let bprint_pct buf label name =
    match T.Metrics.find_histogram name with
    | Some h when h.T.Metrics.h_count > 0 ->
        Buffer.add_string buf
          (Printf.sprintf
             "    %-6s n=%-5d p50 %8.1f us  p90 %8.1f us  p99 %8.1f us  max %8.1f us\n"
             label h.T.Metrics.h_count
             (T.Metrics.percentile h 0.50 /. 1e3)
             (T.Metrics.percentile h 0.90 /. 1e3)
             (T.Metrics.percentile h 0.99 /. 1e3)
             (h.T.Metrics.h_max /. 1e3))
    | _ -> ()
  in
  let hist_max name =
    match T.Metrics.find_histogram name with
    | Some h when h.T.Metrics.h_count > 0 -> h.T.Metrics.h_max
    | _ -> 0.0
  in
  let budgets = [ 100; 500; 2000 ] in
  let progs =
    [
      ( "destroy-ballast",
        Programs.Destroy_src.make_ballast ~ballast ~branch:4 ~depth:5
          ~replace_depth:2 ~iterations:iters,
        getenv_int "BENCH_PB_HEAP" 160000 );
      ( "takl",
        Programs.Takl_src.make ~n1:14 ~n2:10 ~n3:4
          ~repeats:(getenv_int "BENCH_PB_TAKL_REPEATS" 60)
          ~ballast:(getenv_int "BENCH_PB_TAKL_BALLAST" 100),
        getenv_int "BENCH_PB_TAKL_HEAP" 2400 );
    ]
  in
  let mode_name = function
    | `Flat -> "stw-flat"
    | `Gen -> "stw-gen"
    | `Inc us -> Printf.sprintf "inc-%dus" us
  in
  (* Each mode runs [BENCH_PB_REPS] times (default 3) over the identical
     image and keeps the rep with the smallest max pause: an in-process
     wall-clock maximum is the one statistic a shared machine can corrupt
     (a single OS preemption mid-slice or mid-collection lands in the max
     of any collector), and the runs are deterministic, so the minimum
     over reps is the honest estimate of the collector's own worst pause.
     Percentiles are robust either way; all modes get the same treatment. *)
  let run_mode_once ~img mode =
    let result = ref None in
    with_telemetry (fun () ->
        let st = Vm.Interp.create img in
        (match mode with
        | `Flat -> Gc.Cheney.install st
        | `Gen -> Gc.Nursery.install st
        | `Inc us -> ignore (Gc.Incremental.install ~pause_budget_us:us st));
        let t0 = Unix.gettimeofday () in
        Vm.Interp.run st;
        let wall = Unix.gettimeofday () -. t0 in
        let c = T.Metrics.counter_value in
        let buf = Buffer.create 256 in
        Buffer.add_string buf (Printf.sprintf "  %s:\n" (mode_name mode));
        bprint_pct buf "pause" "gc.pause_ns";
        bprint_pct buf "slice" "gc.slice_ns";
        bprint_pct buf "flip" "gc.flip_ns";
        let stats = Gc.Incremental.stats st in
        (match stats with
        | Some s ->
            Buffer.add_string buf
              (Printf.sprintf
                 "    budget %d us: max pause %8.1f us, %d slices, %d overruns, \
                  %d forced STW finishes\n"
                 s.Gc.Incremental.budget_us
                 (hist_max "gc.pause_ns" /. 1e3)
                 s.Gc.Incremental.slices s.Gc.Incremental.overruns
                 s.Gc.Incremental.forced)
        | None -> ());
        let inc_json =
          match stats with
          | None -> []
          | Some s ->
              [
                ("slices", T.Json.Int s.Gc.Incremental.slices);
                ("overruns", T.Json.Int s.Gc.Incremental.overruns);
                ("forced_stw_finishes", T.Json.Int s.Gc.Incremental.forced);
                ("mark_stack_spills", T.Json.Int s.Gc.Incremental.spills);
                ("budget_us", T.Json.Int s.Gc.Incremental.budget_us);
              ]
        in
        result :=
          Some
            ( Vm.Interp.output st,
              st.Vm.Interp.icount,
              hist_max "gc.pause_ns",
              wall,
              T.Json.Obj
                ([
                   ("wall_s", T.Json.Float wall);
                   ("collections", T.Json.Int (c "gc.collections"));
                   ("pause_ns", pct_json "gc.pause_ns");
                   ("slice_ns", pct_json "gc.slice_ns");
                   ("flip_ns", pct_json "gc.flip_ns");
                 ]
                @ inc_json),
              Buffer.contents buf ));
    Option.get !result
  in
  let reps = getenv_int "BENCH_PB_REPS" 3 in
  let run_mode ~img mode =
    let best =
      List.fold_left
        (fun best _ ->
          let r = run_mode_once ~img mode in
          match best with
          | Some ((_, _, bm, _, _, _) as b) ->
              let _, _, m, _, _, _ = r in
              Some (if m < bm then r else b)
          | None -> Some r)
        None
        (List.init reps Fun.id)
    in
    let out, ic, max_pause, wall, json, report = Option.get best in
    print_string report;
    (out, ic, max_pause, wall, json)
  in
  let failures = ref [] in
  let headline = ref None in
  let per_prog =
    List.map
      (fun (name, src, heap) ->
        printf "%s (heap %d words):\n" name heap;
        let img = compile ~optimize:true ~heap src in
        let modes = [ `Flat; `Gen ] @ List.map (fun b -> `Inc b) budgets in
        let runs = List.map (fun m -> (m, run_mode ~img m)) modes in
        let _, (out0, ic0, flat_max, wall0, _) = List.hd runs in
        List.iter
          (fun (m, (out, ic, _, _, _)) ->
            if out <> out0 then
              failures :=
                Printf.sprintf "%s/%s: output diverged from stw-flat" name (mode_name m)
                :: !failures;
            if ic <> ic0 then
              failures :=
                Printf.sprintf "%s/%s: icount %d <> stw-flat %d" name (mode_name m) ic
                  ic0
                :: !failures)
          runs;
        (* Headline acceptance ratio: stw-flat max pause over the tightest
           incremental budget's max pause, on the ballast workload. *)
        (match List.assoc_opt (`Inc (List.hd budgets)) runs with
        | Some (_, _, inc_max, _, _)
          when name = "destroy-ballast" && inc_max > 0.0 ->
            headline := Some (flat_max /. inc_max)
        | _ -> ());
        printf "\n";
        ( name,
          T.Json.Obj
            [
              ("heap_words", T.Json.Int heap);
              ( "modes",
                T.Json.Obj
                  (List.map
                     (fun (m, (_, _, _, _, j)) -> (mode_name m, j))
                     runs) );
              ( "mutator_overhead_vs_flat",
                T.Json.Obj
                  (List.filter_map
                     (fun (m, (_, _, _, wall, _)) ->
                       match m with
                       | `Flat -> None
                       | _ ->
                           Some
                             ( mode_name m,
                               T.Json.Float ((wall -. wall0) /. wall0) ))
                     runs) );
            ] ))
      progs
  in
  (match !headline with
  | Some r ->
      printf
        "headline: stw-flat max pause / inc-%dus max pause on destroy-ballast \
         = %.1fx %s\n\n"
        (List.hd budgets) r
        (if r >= 5.0 then "(>= 5x: ok)" else "(!! below 5x target)")
  | None -> ());
  let doc =
    T.Json.Obj
      [
        ("bench", T.Json.Str "pause_budget");
        ( "params",
          T.Json.Obj
            [
              ("destroy_iterations", T.Json.Int iters);
              ("ballast", T.Json.Int ballast);
              ("budgets_us", T.Json.List (List.map (fun b -> T.Json.Int b) budgets));
              ("optimize", T.Json.Bool true);
              ( "clock_granularity_ns",
                T.Json.Int (Int64.to_int (T.Control.granularity_ns ())) );
            ] );
        ("programs", T.Json.Obj per_prog);
        ( "max_pause_ratio_flat_over_inc",
          match !headline with
          | Some r -> T.Json.Float r
          | None -> T.Json.Int 0 );
      ]
  in
  let oc = open_out out_path in
  output_string oc (T.Json.to_string doc);
  output_string oc "\n";
  close_out oc;
  printf "wrote %s\n" out_path;
  if !failures <> [] then begin
    List.iter (fun f -> printf "!! PAUSE-BUDGET ASSERTION FAILED: %s\n" f)
      !failures;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let all () =
  table1 ();
  table2 ();
  effects ();
  timings ();
  fig1 ();
  fig2 ();
  fig34 ();
  loops ();
  decode_bench ();
  baseline ()

let () =
  match Array.to_list Sys.argv with
  | [ _ ] ->
      all ();
      hr ();
      printf "done. (run with `micro' for the bechamel micro-benchmarks)\n"
  | _ :: args ->
      List.iter
        (fun a ->
          match a with
          | "table1" -> table1 ()
          | "table2" -> table2 ()
          | "effects" -> effects ()
          | "timings" -> timings ()
          | "fig1" -> fig1 ()
          | "fig2" -> fig2 ()
          | "fig34" -> fig34 ()
          | "loops" -> loops ()
          | "decode" -> decode_bench ()
          | "perf" -> perf ()
          | "gen" -> gen_bench ()
          | "mutator" -> mutator ()
          | "pauses" -> pauses ()
          | "pause-budget" -> pause_budget_bench ()
          | "pressure" -> pressure_bench ()
          | "pgo" -> pgo ()
          | "baseline" -> baseline ()
          | "micro" -> micro ()
          | "all" -> all ()
          | other -> printf "unknown experiment %S\n" other)
        args
  | [] -> ()
