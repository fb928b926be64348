(* mmrun — compile and execute an M3L program on the UVM.

     mmrun file.m3l
     mmrun -O --heap 4096 --collector conservative file.m3l
     mmrun --gc-stats file.m3l
     mmrun --trace out.json --metrics file.m3l *)

open Cmdliner
module T = Telemetry

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Per-collection report, read back from the Metrics histograms the
   collectors populate (the single source of truth for gc numbers). The
   conservative collector has no phase breakdown; missing samples print
   as blanks. *)
let print_engine_stats ~engine ~elapsed_ns () =
  Printf.eprintf "engine       : %s\n" engine;
  let insns = T.Metrics.counter_value "vm.instructions" in
  if elapsed_ns > 0L then
    Printf.eprintf "throughput   : %.1f M insns/s (%d insns in %.2f ms)\n"
      (float_of_int insns /. (Int64.to_float elapsed_ns /. 1e3))
      insns
      (Int64.to_float elapsed_ns /. 1e6);
  if engine = "threaded" then begin
    Printf.eprintf "translation  : %.1f us, %d closures, %d pairs fused\n"
      (float_of_int (T.Metrics.counter_value "vm.translate_ns") /. 1e3)
      (T.Metrics.counter_value "vm.closures")
      (T.Metrics.counter_value "vm.fused_pairs");
    let kinds =
      List.filter_map
        (fun k ->
          match T.Metrics.counter_value ("vm.fuse." ^ k) with
          | 0 -> None
          | n -> Some (Printf.sprintf "%s %d" k n))
        Vm.Threaded.fuse_kind_names
    in
    Printf.eprintf "fused execs  : %d (pairs: %s)\n"
      (T.Metrics.counter_value "vm.fused_execs")
      (if kinds = [] then "none" else String.concat ", " kinds)
  end

let print_gc_stats ?placement () =
  let samples name = T.Metrics.samples (T.Metrics.histogram name) in
  let pauses = samples "gc.pause_ns" in
  let n = Array.length pauses in
  let minors = T.Metrics.counter_value "gc.minor_collections" in
  Printf.eprintf "collections  : %d\n" (T.Metrics.counter_value "gc.collections");
  if n > 0 then begin
    Printf.eprintf "%4s %4s %10s %9s %10s %9s %10s %8s %8s %7s\n" "#" "kind"
      "pause us" "walk us" "underiv us" "copy us" "rederiv us" "words" "objects"
      "frames";
    let walk = samples "gc.stackwalk_ns" in
    let underive = samples "gc.underive_ns" in
    let copy = samples "gc.copy_ns" in
    let rederive = samples "gc.rederive_ns" in
    let words = samples "gc.words_copied" in
    let objects = samples "gc.objects_copied" in
    let frames = samples "gc.frames" in
    let is_minor = samples "gc.is_minor" in
    let us arr i =
      if i < Array.length arr then Printf.sprintf "%.1f" (arr.(i) /. 1e3) else "-"
    in
    let int_of arr i =
      if i < Array.length arr then Printf.sprintf "%.0f" arr.(i) else "-"
    in
    for i = 0 to n - 1 do
      let kind =
        if i < Array.length is_minor then
          if is_minor.(i) = 1.0 then "min" else "maj"
        else "-"
      in
      Printf.eprintf "%4d %4s %10s %9s %10s %9s %10s %8s %8s %7s\n" (i + 1) kind
        (us pauses i) (us walk i) (us underive i) (us copy i) (us rederive i)
        (int_of words i) (int_of objects i) (int_of frames i)
    done
  end;
  (* Pause-time distribution from the log-scaled bucket histograms —
     immune to the raw-sample cap, so the quantiles stay exact-enough
     (one sub-bucket, 25%) at any collection count. *)
  let pct_row label name =
    match T.Metrics.find_histogram name with
    | Some h when h.T.Metrics.h_count > 0 ->
        Printf.eprintf
          "pauses %-6s: n=%-6d p50 %8.1f us  p90 %8.1f us  p99 %8.1f us  max %8.1f us\n"
          label h.T.Metrics.h_count
          (T.Metrics.percentile h 0.50 /. 1e3)
          (T.Metrics.percentile h 0.90 /. 1e3)
          (T.Metrics.percentile h 0.99 /. 1e3)
          (h.T.Metrics.h_max /. 1e3)
    | _ -> ()
  in
  pct_row "all" "gc.pause_ns";
  pct_row "minor" "gc.minor_pause_ns";
  pct_row "full" "gc.major_pause_ns";
  pct_row "slice" "gc.slice_ns";
  pct_row "flip" "gc.flip_ns";
  (* Incremental mode: make budget violations visible at a glance. *)
  let slices = T.Metrics.counter_value "gc.slices" in
  if slices > 0 then begin
    let budget = T.Metrics.counter_value "gc.budget_us" in
    let max_slice_us =
      match T.Metrics.find_histogram "gc.slice_ns" with
      | Some h -> h.T.Metrics.h_max /. 1e3
      | None -> 0.0
    in
    Printf.eprintf
      "budget       : %s, max slice: %.1f us, overruns: %d\n"
      (if budget > 0 then Printf.sprintf "%d us" budget else "none (work-paced)")
      max_slice_us
      (T.Metrics.counter_value "gc.slice_overruns");
    Printf.eprintf
      "incremental  : %d slices, %d forced STW finishes, %d mark-stack spills\n"
      slices
      (T.Metrics.counter_value "gc.forced_finish")
      (T.Metrics.counter_value "gc.mark_spills")
  end;
  if minors > 0 then begin
    let h name = T.Metrics.histogram name in
    let minor_pause = h "gc.minor_pause_ns" and major_pause = h "gc.major_pause_ns" in
    Printf.eprintf
      "minor/major  : %d minor (mean %.1f us, %.0f words promoted), %d major (mean \
       %.1f us, %.0f words copied)\n"
      minors
      (T.Metrics.mean minor_pause /. 1e3)
      (h "gc.minor_words").T.Metrics.h_sum
      (T.Metrics.counter_value "gc.major_collections")
      (T.Metrics.mean major_pause /. 1e3)
      (h "gc.major_words").T.Metrics.h_sum;
    Printf.eprintf "write barrier: %d executed, %d remembered-set inserts\n"
      (T.Metrics.counter_value "gc.barrier_execs")
      (T.Metrics.counter_value "gc.remset_inserts");
    (* Profile-guided placement: which sites bypassed the nursery and how
       many words they kept out of the minor copy loop. *)
    Printf.eprintf
      "placement    : %s — %d pretenure sites (%d words), %d pool sites (%d words)\n"
      (match placement with
      | Some (src, _) -> "policy from " ^ src
      | None -> "none")
      (T.Metrics.counter_value "gc.pretenure_sites")
      (T.Metrics.counter_value "gc.pretenured_words")
      (T.Metrics.counter_value "gc.pool_sites")
      (T.Metrics.counter_value "gc.pool_words")
  end;
  let elim_seen = T.Metrics.counter_value "barrier_elim.stores_seen" in
  if elim_seen > 0 then
    Printf.eprintf "barrier elim : %d of %d pointer stores statically barrier-free\n"
      (T.Metrics.counter_value "barrier_elim.stores_elided")
      elim_seen;
  let hist_sum name = (T.Metrics.histogram name).T.Metrics.h_sum in
  Printf.eprintf "instructions : %d\n" (T.Metrics.counter_value "vm.instructions");
  Printf.eprintf "allocations  : %d (%d words)\n"
    (T.Metrics.counter_value "vm.allocations")
    (T.Metrics.counter_value "vm.alloc_words");
  Printf.eprintf "words copied : %.0f\n" (hist_sum "gc.words_copied");
  (* Copy bandwidth across the whole run: the gc.copy_words counter and
     the exact sum of the per-collection copy phase times. *)
  let copy_words = T.Metrics.counter_value "gc.copy_words" in
  let copy_ns = hist_sum "gc.copy_ns" in
  if copy_ns > 0.0 then
    Printf.eprintf
      "copy bandwdth: %.1f Mwords/s (%d words in %.0f us copy time)\n"
      (float_of_int copy_words /. (copy_ns /. 1e3))
      copy_words (copy_ns /. 1e3);
  Printf.eprintf "frames traced: %d\n" (T.Metrics.counter_value "gc.frames_traced");
  Printf.eprintf "derived vals : %d un-derived, %d re-derived\n"
    (T.Metrics.counter_value "derived.underived")
    (T.Metrics.counter_value "derived.rederived");
  Printf.eprintf "table decode : %d lookups, %d bytes scanned\n"
    (T.Metrics.counter_value "decode.finds")
    (T.Metrics.counter_value "decode.bytes");
  Printf.eprintf "decode cache : %d hits, %d misses, %d stream bytes cached%s\n"
    (T.Metrics.counter_value "decode.cache_hits")
    (T.Metrics.counter_value "decode.cache_misses")
    (T.Metrics.counter_value "decode.cache_bytes")
    (if Gcmaps.Decode_cache.enabled () then "" else " (disabled)");
  Printf.eprintf "gc time      : %.0f us (stack walk %.0f us, un/re-derive %.0f us)\n"
    (hist_sum "gc.pause_ns" /. 1e3)
    (hist_sum "gc.stackwalk_ns" /. 1e3)
    ((hist_sum "gc.underive_ns" +. hist_sum "gc.rederive_ns") /. 1e3);
  (* Memory-pressure accounting, printed only when something happened. *)
  let resizes = T.Metrics.counter_value "gc_pressure.resizes" in
  let emergency = T.Metrics.counter_value "gc_pressure.emergency_full" in
  if resizes + emergency > 0 then
    Printf.eprintf "gc pressure  : %d resizes (%d words grown), %d emergency full\n" resizes
      (T.Metrics.counter_value "gc_pressure.grow_words")
      emergency

let run file optimize checks no_gc_restrict heap heap_grow heap_max stack collector
    gen incremental pause_budget nursery no_barrier_elim no_threaded
    gc_stats trace metrics no_decode_cache verify_heap verify_pre profile
    census_every policy fuel =
  if no_decode_cache then Gcmaps.Decode_cache.set_enabled false;
  if no_threaded then Vm.Threaded.set_enabled false;
  if verify_heap then Gc.Verify.set_post true;
  if verify_pre then Gc.Verify.set_pre true;
  let options =
    {
      Driver.Compile.default_options with
      optimize;
      checks;
      gc_restrict = not no_gc_restrict;
      barrier_elim = not no_barrier_elim;
      heap_words = heap;
      stack_words = stack;
    }
  in
  if gc_stats || metrics || trace <> None || profile <> None then T.Control.enable ();
  try
    (* The flags resolve over the environment as [run]'s arguments do,
       each under its own name, so a refusal names both settings. *)
    let module RC = Support.Runtime_config in
    let flag given name c = if given then [ (name, c) ] else [] in
    let collector =
      RC.resolve (RC.env ())
        ~collectors:
          (("--collector " ^ Driver.Compile.collector_name collector, collector)
          :: flag gen "--gen" RC.Generational
          @ flag incremental "--incremental" RC.Incremental)
        ?grow:(if heap_grow then Some "--heap-grow" else Option.map (fun _ -> "--heap-max") heap_max)
        ?census:(if census_every > 0 then Some (Printf.sprintf "--census-every %d" census_every) else None)
        ~bounds:
          [ ("--nursery", nursery, 1); ("--heap-max", heap_max, 1);
            ("--pause-budget-us", pause_budget, 0); ("--census-every", Some census_every, 0) ]
    in
    let image = Driver.Compile.compile ~options (read_file file) in
    (* Attach a profiler only when asked: with --profile off the machine
       carries no profiler and the run is byte-identical to pre-profiling
       behavior. *)
    let prof =
      match profile with
      | None -> None
      | Some _ ->
          let p = Driver.Compile.profile_for image in
          Profile.set_census_every p census_every;
          Some p
    in
    let pol = Option.map Driver.Compile.policy_of_file policy in
    let t0 = T.Control.now_ns () in
    let r =
      Driver.Compile.run ~collector ?nursery_words:nursery
        ?pause_budget_us:pause_budget ?profile:prof ~fuel
        ?heap_grow:(if heap_grow then Some true else None)
        ?heap_max_words:heap_max ?policy:pol image
    in
    let elapsed_ns = Int64.sub (T.Control.now_ns ()) t0 in
    print_string r.Driver.Compile.output;
    (match trace with
    | Some path -> T.Trace.write_chrome_file path
    | None -> ());
    (match (profile, prof) with
    | Some path, Some p ->
        let oc = open_out path in
        output_string oc (T.Json.to_string (Profile.to_json p));
        output_char oc '\n';
        close_out oc
    | _ -> ());
    if gc_stats then begin
      print_engine_stats ~engine:r.Driver.Compile.engine ~elapsed_ns ();
      print_gc_stats ?placement:r.Driver.Compile.placement ()
    end;
    if metrics then prerr_string (T.Metrics.to_text ());
    `Ok ()
  with
  | M3l.M3l_error.Lex_error (loc, m) ->
      `Error (false, Printf.sprintf "%s: lexical error: %s" (M3l.Srcloc.to_string loc) m)
  | M3l.M3l_error.Parse_error (loc, m) ->
      `Error (false, Printf.sprintf "%s: parse error: %s" (M3l.Srcloc.to_string loc) m)
  | M3l.M3l_error.Type_error (loc, m) ->
      `Error (false, Printf.sprintf "%s: type error: %s" (M3l.Srcloc.to_string loc) m)
  (* Configuration and runtime failures exit directly with the documented
     per-class codes (16 for a configuration error; see Vm_error.exit_code;
     guest-program traps use 3), so harnesses assert on the exit status
     instead of string-matching stderr. Compile-time and CLI errors keep
     cmdliner's own codes. *)
  | Support.Runtime_config.Config_error e ->
      Printf.eprintf "mmrun: configuration error: %s\n%!" (Support.Runtime_config.message e);
      exit Support.Runtime_config.exit_code
  | Vm.Interp.Guest_error m ->
      Printf.eprintf "mmrun: runtime error: %s\n%!" m;
      exit 3
  | Vm.Vm_error.Error e ->
      Printf.eprintf "mmrun: vm error: %s\n%!" (Vm.Vm_error.to_string e);
      exit (Vm.Vm_error.exit_code e)
  | Gcmaps.Decode.Table_corrupt { fid; offset; pos; reason } ->
      Printf.eprintf
        "mmrun: corrupt gc table (proc %d, code offset %d, stream byte %d): %s\n%!"
        fid offset pos reason;
      exit (Vm.Vm_error.exit_code (Vm.Vm_error.Corrupt_table { fid; offset; reason }))
  | Policy.Policy_error m -> `Error (false, Printf.sprintf "bad policy file: %s" m)
  | T.Json.Parse_error m -> `Error (false, Printf.sprintf "bad policy file: %s" m)
  | Sys_error m -> `Error (false, m)

let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
let optimize = Arg.(value & flag & info [ "O"; "optimize" ] ~doc:"Run the optimizer.")
let checks = Arg.(value & opt bool true & info [ "checks" ] ~doc:"NIL/bounds checks.")
let no_gc_restrict =
  Arg.(
    value & flag
    & info [ "no-gc-restrict" ]
        ~doc:"Run code compiled without gc restrictions (unsafe; warns).")
let heap =
  Arg.(value & opt int 65536 & info [ "heap" ] ~doc:"Words per semispace.")
let heap_grow =
  Arg.(
    value & flag
    & info [ "heap-grow" ]
        ~doc:
          "Adaptive heap: grow the semispaces under memory pressure instead \
           of failing with heap-exhausted, up to --heap-max. The heap is the last region of \
           the memory map, so resizing moves no address: a grown run is \
           byte-identical to one started with the larger heap. An error \
           (exit 16) with a non-moving collector. MM_HEAP_GROW=1 enables it \
           wherever the collector moves.")
let heap_max =
  Arg.(
    value
    & opt (some int) None
    & info [ "heap-max" ] ~docv:"WORDS"
        ~doc:
          "Hard cap in words per semispace for --heap-grow (default 4194304; \
           implies --heap-grow). Allocation fails \
           with the typed heap-exhausted error (exit code 13) only at the \
           cap.")
let stack = Arg.(value & opt int 16384 & info [ "stack" ] ~doc:"Stack words.")
let collector =
  Arg.(
    value
    & opt (enum Driver.Compile.collector_names) Driver.Compile.Precise
    & info [ "collector" ] ~doc:"precise | generational | incremental | conservative | none.")
let gen =
  Arg.(
    value & flag
    & info [ "gen" ]
        ~doc:
          "Generational mode: nursery allocation, minor collections through the \
           same gc-point tables plus the remembered set, full compaction as \
           fallback. Same image, byte-identical tables. Shorthand for \
           --collector generational; also enabled by MM_GEN=1.")
let incremental =
  Arg.(
    value & flag
    & info [ "incremental" ]
        ~doc:
          "Incremental mode: tri-color mark-sweep collection in bounded \
           slices at gc-points, with the existing write barrier acting as a \
           Dijkstra insertion barrier. Non-moving; program output and \
           instruction counts are byte-identical to the stop-the-world \
           collectors. Shorthand for --collector incremental; also enabled \
           by MM_GC_INCREMENTAL=1.")
let pause_budget =
  Arg.(
    value
    & opt (some int) None
    & info [ "pause-budget-us" ] ~docv:"MICROSECONDS"
        ~doc:
          "Hard wall-clock budget per incremental collection slice. When set, \
           a slice stops at the deadline (checked every few scanned objects, \
           so the documented slack is one scan granule) and remaining work \
           carries to the next gc-point; overruns are counted and shown by \
           --gc-stats. Without it, slices are paced by a deterministic work \
           quota (the default: identical heap images across engines).")
let nursery =
  Arg.(
    value
    & opt (some int) None
    & info [ "nursery" ] ~docv:"WORDS"
        ~doc:
          "Nursery size in words for generational mode (default: a quarter \
           semispace, floored at 300 words).")
let no_barrier_elim =
  Arg.(
    value & flag
    & info [ "no-barrier-elim" ]
        ~doc:
          "Disable the static write-barrier elimination pass (keep every \
           compiler-emitted barrier).")
let no_threaded =
  Arg.(
    value & flag
    & info [ "no-threaded" ]
        ~doc:
          "Execute on the reference switch interpreter instead of the \
           pre-translated threaded-code engine. Same machine state, same \
           gc tables, same output — only dispatch changes. Also disabled \
           by MM_THREADED=0.")
let gc_stats =
  Arg.(
    value & flag
    & info [ "gc-stats" ] ~doc:"Report per-collection and cumulative gc statistics.")
let trace =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write a Chrome trace_event JSON file of gc and vm spans.")
let metrics =
  Arg.(value & flag & info [ "metrics" ] ~doc:"Print the telemetry metrics summary.")
let no_decode_cache =
  Arg.(
    value & flag
    & info [ "no-decode-cache" ]
        ~doc:
          "Disable the memoized pc→table decode cache: every frame lookup \
           re-scans the procedure's table stream, reproducing the paper's \
           uncached decode cost (§5.2/§6.3).")
let verify_heap =
  Arg.(
    value & flag
    & info [ "verify-heap" ]
        ~doc:
          "After every collection, re-check the whole heap: object headers, \
           pointer fields, global/stack/register roots and the derived-value \
           invariant. Violations abort with a structured report.")
let verify_pre =
  Arg.(
    value & flag
    & info [ "verify-pre" ]
        ~doc:"Also run the heap verifier before each collection moves anything.")
let profile =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile" ] ~docv:"FILE"
        ~doc:
          "Write a versioned JSON allocation profile: per-site allocation \
           counts and survival rates (sites carry their m3l source location), \
           pause-time distributions, and any heap censuses. Off by default; \
           when off, execution is byte-identical to a build without profiling.")
let policy =
  Arg.(
    value
    & opt (some file) None
    & info [ "policy" ] ~docv:"FILE"
        ~doc:
          "Load an mm-policy placement file (see policygen): sites the policy \
           marks pretenure or pool allocate directly in the old generation, \
           bypassing the nursery. Matching is by stable (proc, line, col, \
           type) key, so a policy survives recompilation. Pure runtime \
           switch — gc tables and program output are byte-identical.")
let census_every =
  Arg.(
    value & opt int 0
    & info [ "census-every" ] ~docv:"N"
        ~doc:
          "With --profile: take a heap census (live objects and words by type \
           descriptor and by allocation site) after every Nth collection. 0 \
           disables censuses. An error (exit 16) with a non-moving \
           collector, which never ends a copying collection.")
let fuel =
  Arg.(value & opt int 1_000_000_000 & info [ "fuel" ] ~doc:"Instruction budget.")

let cmd =
  let doc = "run M3L programs under the table-driven compacting collector" in
  Cmd.v
    (Cmd.info "mmrun" ~doc)
    Term.(
      ret
        (const run $ file $ optimize $ checks $ no_gc_restrict $ heap $ heap_grow
       $ heap_max $ stack $ collector $ gen $ incremental $ pause_budget $ nursery
       $ no_barrier_elim $ no_threaded $ gc_stats $ trace $ metrics
       $ no_decode_cache $ verify_heap $ verify_pre $ profile $ census_every
       $ policy $ fuel))

let () = exit (Cmd.eval cmd)
