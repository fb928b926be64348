(* A broader set of real programs ({!Toys}) — classic small algorithms —
   each run under the full configuration matrix (optimizer on/off, checks
   on/off, big and tiny heaps, precise and conservative collectors, both
   engines). These give the language and the collectors wide structural
   coverage beyond the paper's benchmarks; test_threaded runs the same
   programs under the generational and incremental collectors. *)

(* The rows at the toy's small heap must collect, unless the toy says it
   cannot (and its row names why). *)
let matrix (t : Toys.t) () =
  let small = t.Toys.small in
  List.iter
    (fun (tag, optimize, checks, heap, collector, threaded) ->
      let options = { Driver.Compile.default_options with optimize; checks; heap_words = heap } in
      let r = Driver.Compile.run_source ~options ~collector ~threaded t.Toys.src in
      let tag = if heap = small then Toys.small_row ~never:t.Toys.never_collects tag else tag in
      let row = Printf.sprintf "%s/%s" t.Toys.name tag in
      Alcotest.check Alcotest.string row t.Toys.expected r.Driver.Compile.output;
      if heap = small && t.Toys.never_collects = None then
        Alcotest.check Alcotest.bool (row ^ ": collected") true (r.Driver.Compile.collections > 0))
    [
      ("plain", false, true, 65536, Driver.Compile.Precise, true);
      ("opt", true, true, 65536, Driver.Compile.Precise, true);
      ("small", false, true, small, Driver.Compile.Precise, false);
      ("opt-small", true, true, small, Driver.Compile.Precise, true);
      ("opt-small-nochk", true, false, small, Driver.Compile.Precise, false);
      ("conservative", false, true, small * 3, Driver.Compile.Conservative, true);
    ]

let () =
  Alcotest.run "toys"
    [
      ( "programs",
        List.map (fun (t : Toys.t) -> Alcotest.test_case t.Toys.name `Quick (matrix t)) Toys.all );
    ]
