(** Compiling for the benchmark.

    Outside the traced pass this is [Driver.Compile.compile], the driver
    users run, so the end-to-end metrics time the driver itself. While
    spans are recording, the same public calls in the same order as
    [Driver.Compile.to_mir] followed by [image_of_mir] are made one layer at
    a time, each inside its own span, so the traced pass can attribute
    compile time to the frontend, lowering, the optimizer and image
    construction. The test suite checks both build the same image. *)

let options ~optimize ~heap_words =
  { Driver.Compile.default_options with optimize; heap_words }

(** The driver's pipeline, one public layer call per span. *)
let layered ~(options : Driver.Compile.options) src =
  let tast = Spans.time "compile.check" (fun () -> M3l.Typecheck.check_source src) in
  let prog =
    Spans.time "compile.lower" (fun () ->
        Mir.Lower.program ~checks:options.Driver.Compile.checks tast)
  in
  if options.Driver.Compile.optimize then
    Spans.time "compile.optimize" (fun () -> Opt.Pipeline.optimize prog);
  if options.Driver.Compile.loop_gcpoints then ignore (Opt.Loop_gcpoints.run prog);
  if options.Driver.Compile.barrier_elim then
    Spans.time "compile.barrier_elim" (fun () -> Opt.Barrier_elim.run prog);
  Spans.time "compile.image" (fun () -> Driver.Compile.image_of_mir ~options prog)

let compile ~optimize ~heap_words src : Vm.Image.t =
  let options = options ~optimize ~heap_words in
  if !Spans.enabled then layered ~options src else Driver.Compile.compile ~options src

(** MIR instructions over every procedure: the size of the intermediate
    representation between layers. *)
let mir_insns (p : Mir.Ir.program) =
  Array.fold_left
    (fun n (f : Mir.Ir.func) ->
      Array.fold_left (fun n (b : Mir.Ir.block) -> n + List.length b.Mir.Ir.instrs) n f.Mir.Ir.blocks)
    0 p.Mir.Ir.funcs

type sizes = { lowered_insns : int; optimized_insns : int }

(** MIR size after lowering and after the whole middle end, computed
    outside any timed window. *)
let sizes ~optimize src =
  let options = { Driver.Compile.default_options with optimize } in
  let lowered =
    Mir.Lower.program ~checks:options.Driver.Compile.checks (M3l.Typecheck.check_source src)
  in
  {
    lowered_insns = mir_insns lowered;
    optimized_insns = mir_insns (Driver.Compile.to_mir ~options src);
  }

let table_bytes (image : Vm.Image.t) = Gcmaps.Encode.total_table_bytes image.Vm.Image.tables

let gcpoints (image : Vm.Image.t) =
  (Gcmaps.Table_stats.compute image.Vm.Image.rawmaps).Gcmaps.Table_stats.ngcpoints
