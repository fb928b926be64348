(* The paper's benchmark programs: golden outputs, stability across every
   compiler and collector configuration, and the statistics the evaluation
   section needs from them. *)

let check = Alcotest.check

let run ?(collector = Driver.Compile.Precise) ?(threaded = true) ?(optimize = false)
    ?(checks = true) ?(heap = 65536) src =
  let options =
    { Driver.Compile.default_options with optimize; checks; heap_words = heap }
  in
  Driver.Compile.run_source ~options ~collector ~threaded src

let benchmarks =
  [
    ("takl", Programs.Takl_src.src, 4000, 400);
    ("destroy", Programs.Destroy_src.src, 16384, 8000);
    ("typereg", Programs.Typereg_src.src, 8000, 3000);
    ("fieldlist", Programs.Fieldlist_src.src, 4000, 300);
    ("indirect", Programs.Indirect_src.src, 4000, 1000);
    ("ambig", Programs.Ambig_src.src, 2000, 400);
  ]

let test_golden () =
  check Alcotest.string "takl" Programs.Takl_src.expected
    (run Programs.Takl_src.src).Driver.Compile.output;
  check Alcotest.string "ambig" Programs.Ambig_src.expected
    (run Programs.Ambig_src.src).Driver.Compile.output;
  (* destroy is deterministic (LCG in-program). *)
  check Alcotest.string "destroy"
    (run Programs.Destroy_src.src).Driver.Compile.output
    (run Programs.Destroy_src.src).Driver.Compile.output;
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let typereg_out = (run Programs.Typereg_src.src).Driver.Compile.output in
  check Alcotest.bool "typereg reports no sharing bugs" false (contains typereg_out "BUG");
  check Alcotest.bool "typereg registered types" true (contains typereg_out "registered=")

let test_configuration_matrix () =
  List.iter
    (fun (name, src, big, small) ->
      let reference = run ~heap:big src in
      List.iter
        (fun (tag, optimize, checks, heap, collector, threaded) ->
          let r = run ~optimize ~checks ~heap ~collector ~threaded src in
          check Alcotest.string
            (Printf.sprintf "%s/%s" name tag)
            reference.Driver.Compile.output r.Driver.Compile.output)
        [
          ("opt", true, true, big, Driver.Compile.Precise, false);
          ("small", false, true, small, Driver.Compile.Precise, true);
          ("opt-small", true, true, small, Driver.Compile.Precise, false);
          ("nochecks", false, false, small, Driver.Compile.Precise, true);
          ("opt-nochecks", true, false, small, Driver.Compile.Precise, false);
          ("gen-small", false, true, small, Driver.Compile.Generational, false);
          ("gen-opt-small", true, true, small, Driver.Compile.Generational, true);
          ("inc-small", false, true, small, Driver.Compile.Incremental, true);
          ("inc-opt-small", true, true, small, Driver.Compile.Incremental, false);
          ("conservative", false, true, big, Driver.Compile.Conservative, true);
        ])
    benchmarks

let test_collections_happen () =
  (* The gc-stressing benchmarks really do collect with small heaps. *)
  List.iter
    (fun (name, src, _big, small) ->
      let r = run ~heap:small src in
      check Alcotest.bool (name ^ " collects") true (r.Driver.Compile.collections > 0))
    (List.filter (fun (n, _, _, _) -> n <> "takl" && n <> "indirect") benchmarks)

let test_destroy_scales () =
  (* Bigger destroy configurations allocate more and keep the tree shape. *)
  let small = Programs.Destroy_src.make ~branch:2 ~depth:5 ~replace_depth:2 ~iterations:20 in
  let big = Programs.Destroy_src.make ~branch:2 ~depth:7 ~replace_depth:3 ~iterations:20 in
  let rs = run ~heap:30000 small and rb = run ~heap:30000 big in
  check Alcotest.bool "bigger tree allocates more" true
    (rb.Driver.Compile.alloc_words > rs.Driver.Compile.alloc_words)

let test_table_statistics_sane () =
  (* Table 1 columns for each benchmark: sanity constraints that must hold
     for any correct implementation. *)
  List.iter
    (fun (name, src, _, _) ->
      List.iter
        (fun optimize ->
          let options = { Driver.Compile.default_options with optimize } in
          let img = Driver.Compile.compile ~options src in
          let s = Gcmaps.Table_stats.compute img.Vm.Image.rawmaps in
          check Alcotest.bool (name ^ " has gc-points") true
            (s.Gcmaps.Table_stats.ngcpoints > 0);
          check Alcotest.bool (name ^ " ngc <= total") true
            (s.Gcmaps.Table_stats.ngc <= s.Gcmaps.Table_stats.ngcpoints);
          check Alcotest.bool (name ^ " code nonempty") true
            (s.Gcmaps.Table_stats.size_bytes > 0);
          (* Every delta/reg/deriv table emitted belongs to some gc-point. *)
          check Alcotest.bool (name ^ " ndel bounded") true
            (s.Gcmaps.Table_stats.ndel <= s.Gcmaps.Table_stats.ngcpoints);
          check Alcotest.bool (name ^ " nreg bounded") true
            (s.Gcmaps.Table_stats.nreg <= s.Gcmaps.Table_stats.ngcpoints);
          check Alcotest.bool (name ^ " nder bounded") true
            (s.Gcmaps.Table_stats.nder <= s.Gcmaps.Table_stats.ngcpoints);
          (* Optimized code must still emit §3's derivation tables: from a
             WITH alias in fieldlist, from a path variable in ambig. *)
          if optimize && List.mem name [ "fieldlist"; "ambig" ] then
            check Alcotest.bool (name ^ " O1 emits a derivation table") true
              (s.Gcmaps.Table_stats.nder >= 1))
        [ false; true ])
    benchmarks

let test_size_ordering () =
  (* Table 2's qualitative content: for every benchmark, packing+previous
     is the smallest δ-main configuration, and packing alone beats plain. *)
  List.iter
    (fun (name, src, _, _) ->
      let options = { Driver.Compile.default_options with optimize = true } in
      let img = Driver.Compile.compile ~options src in
      let sizes = Gcmaps.Table_stats.sizes img.Vm.Image.rawmaps in
      let size key = List.assoc key sizes in
      check Alcotest.bool (name ^ " pp <= packing") true
        (size "delta/pp" <= size "delta/packing");
      check Alcotest.bool (name ^ " packing < plain") true
        (size "delta/packing" < size "delta/plain");
      check Alcotest.bool (name ^ " previous <= plain") true
        (size "delta/previous" <= size "delta/plain");
      check Alcotest.bool (name ^ " full packing < full plain") true
        (size "full/packing" < size "full/plain"))
    benchmarks

let test_gc_restrict_effects () =
  (* §6.2, at O0 and at O1: turning gc restrictions off may only shrink
     the code (folds into deferred operands), and behaviour with no
     collector (the only one such code may run under) is unchanged. *)
  List.iter
    (fun optimize ->
      let level = if optimize then " O1" else " O0" in
      List.iter
        (fun (name, src, _, _) ->
          let name = name ^ level in
          (* The default heap holds everything each program allocates. *)
          let options = { Driver.Compile.default_options with optimize } in
          let restricted = Driver.Compile.compile ~options src in
          let unrestricted =
            Driver.Compile.compile ~options:{ options with gc_restrict = false } src
          in
          check Alcotest.bool (name ^ " unrestricted not larger") true
            (unrestricted.Vm.Image.code_bytes <= restricted.Vm.Image.code_bytes);
          (* Every fold available without restrictions is either also
             applied under restrictions (safe) or counted as suppressed. *)
          check Alcotest.bool
            (name ^ " suppression accounting")
            true
            (restricted.Vm.Image.folds_suppressed
             >= unrestricted.Vm.Image.folds_applied - restricted.Vm.Image.folds_applied);
          let r1 = Driver.Compile.run ~collector:Driver.Compile.Precise ~threaded:true restricted in
          let r2 =
            Driver.Compile.run ~collector:Driver.Compile.No_gc ~threaded:false unrestricted
          in
          check Alcotest.string (name ^ " same output gc-free") r1.Driver.Compile.output
            r2.Driver.Compile.output)
        benchmarks;
      (* The indirect-reference micro-benchmark, compiled without checks
         (the guards otherwise split the foldable pairs), must show the
         paper's effect: restrictions suppress folds and cost code bytes. *)
      let base = { Driver.Compile.default_options with optimize; checks = false } in
      let restricted = Driver.Compile.compile ~options:base Programs.Indirect_src.src in
      let unrestricted =
        Driver.Compile.compile
          ~options:{ base with gc_restrict = false }
          Programs.Indirect_src.src
      in
      check Alcotest.bool ("indirect" ^ level ^ ": folds suppressed under restrictions") true
        (restricted.Vm.Image.folds_suppressed > 0);
      check Alcotest.bool ("indirect" ^ level ^ ": restrictions cost code bytes") true
        (restricted.Vm.Image.code_bytes > unrestricted.Vm.Image.code_bytes))
    [ false; true ]

(* Structural invariants of the emitted tables, over every benchmark:
   these are the properties the collector's correctness rests on. *)
let test_table_invariants () =
  List.iter
    (fun (name, src, _, _) ->
      List.iter
        (fun optimize ->
          let options = { Driver.Compile.default_options with optimize } in
          let img = Driver.Compile.compile ~options src in
          Array.iter
            (fun (pm : Gcmaps.Rawmaps.proc_maps) ->
              (* gc-point offsets strictly increase (the delta encoding
                 depends on it). *)
              let offs = List.map (fun g -> g.Gcmaps.Rawmaps.gp_offset) pm.Gcmaps.Rawmaps.pm_gcpoints in
              check Alcotest.bool (name ^ " offsets sorted") true
                (List.sort_uniq compare offs = offs);
              (* Saved registers are callee-saved, at distinct negative
                 offsets within the frame. *)
              List.iter
                (fun (r, off) ->
                  check Alcotest.bool (name ^ " save reg callee-saved") true
                    (Machine.Reg.is_callee_saved r);
                  check Alcotest.bool (name ^ " save slot in frame") true
                    (off < 0 && -off <= pm.Gcmaps.Rawmaps.pm_frame_size))
                pm.Gcmaps.Rawmaps.pm_saves;
              List.iter
                (fun (g : Gcmaps.Rawmaps.gcpoint) ->
                  (* Stack entries are unique. *)
                  let sp = g.Gcmaps.Rawmaps.stack_ptrs in
                  check Alcotest.bool (name ^ " stack entries unique") true
                    (List.sort_uniq Gcmaps.Loc.compare sp
                    = List.sort Gcmaps.Loc.compare sp);
                  (* Register entries are real general registers. *)
                  List.iter
                    (fun r ->
                      check Alcotest.bool (name ^ " reg index valid") true
                        (r >= 0 && r < Machine.Reg.ngeneral))
                    g.Gcmaps.Rawmaps.reg_ptrs;
                  (* Derivation order: a derived value precedes any entry
                     whose target appears among its bases (the paper's
                     second ordering rule, which the updater relies on). *)
                  let rec well_ordered = function
                    | [] -> true
                    | (d : Gcmaps.Rawmaps.deriv_entry) :: rest ->
                        let bases = d.Gcmaps.Rawmaps.plus @ d.Gcmaps.Rawmaps.minus in
                        (* no LATER entry's target may be a base of an
                           EARLIER entry... equivalently: d's bases must not
                           be targets of entries BEFORE d. Walking forward:
                           every base of d that is also some entry's target
                           must appear in rest, not before. We check the
                           forward form: none of d's preceding entries is
                           needed; so verify d's target is not a base of any
                           entry in rest. *)
                        List.for_all
                          (fun (later : Gcmaps.Rawmaps.deriv_entry) ->
                            not
                              (List.exists
                                 (Gcmaps.Loc.equal d.Gcmaps.Rawmaps.target)
                                 (later.Gcmaps.Rawmaps.plus @ later.Gcmaps.Rawmaps.minus))
                          )
                          rest
                        |> fun ok -> ignore bases; ok && well_ordered rest
                  in
                  check Alcotest.bool (name ^ " derivation order") true
                    (well_ordered g.Gcmaps.Rawmaps.derivs))
                pm.Gcmaps.Rawmaps.pm_gcpoints)
            img.Vm.Image.rawmaps)
        [ false; true ])
    benchmarks

let () =
  Alcotest.run "programs"
    [
      ( "benchmarks",
        [
          Alcotest.test_case "golden outputs" `Quick test_golden;
          Alcotest.test_case "configuration matrix" `Slow test_configuration_matrix;
          Alcotest.test_case "collections happen" `Quick test_collections_happen;
          Alcotest.test_case "destroy scales" `Quick test_destroy_scales;
        ] );
      ( "evaluation",
        [
          Alcotest.test_case "table statistics sane" `Quick test_table_statistics_sane;
          Alcotest.test_case "size ordering (Table 2 shape)" `Quick test_size_ordering;
          Alcotest.test_case "gc-restriction effects (6.2)" `Quick test_gc_restrict_effects;
          Alcotest.test_case "table invariants" `Quick test_table_invariants;
        ] );
    ]
