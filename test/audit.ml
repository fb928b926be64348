(* Compiling in audit mode, for the tests that check NIL-check
   elimination: each check the optimizer proves dead stays, with a trap on
   its NIL edge (Opt.Pipeline.options.audit_checks). The passes run where
   Driver.Compile.to_mir runs the pipeline, between lowering and the
   gc-point and barrier passes. *)

let passes = { Opt.Pipeline.all_on with audit_checks = true }

(* [options] as Driver.Compile.compile reads them, with [passes] (audit
   mode by default) as the pipeline when [options.optimize] is set. *)
let compile ?(passes = passes) (options : Driver.Compile.options) src =
  let prog =
    Driver.Compile.to_mir
      ~options:{ options with optimize = false; loop_gcpoints = false; barrier_elim = false }
      src
  in
  if options.optimize then Opt.Pipeline.optimize ~opts:passes prog;
  if options.loop_gcpoints then ignore (Opt.Loop_gcpoints.run prog);
  if options.barrier_elim then Opt.Barrier_elim.run prog;
  Driver.Compile.image_of_mir ~options prog

let run_source ?passes ?fuel options ~collector ~threaded src =
  (Driver.Compile.run ?fuel ~collector ~threaded (compile ?passes options src))
    .Driver.Compile.output
