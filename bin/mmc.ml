(* mmc — the M3L compiler driver.

   Compiles an M3L source file and dumps the requested artifacts: MIR,
   machine code, gc tables, or table statistics.

     mmc file.m3l                 -- compile, report sizes
     mmc -O file.m3l              -- with the optimizer
     mmc --dump-mir file.m3l      -- print the (optimized) MIR
     mmc --dump-code file.m3l     -- print the UVM assembly
     mmc --dump-tables file.m3l   -- print the per-gc-point tables
     mmc --stats file.m3l         -- Table-1-style statistics and sizes *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let run_compiler file optimize checks no_gc_restrict loop_gcpoints dump_mir dump_code
    dump_tables stats timings =
  let options =
    {
      Driver.Compile.default_options with
      optimize;
      checks;
      gc_restrict = not no_gc_restrict;
      loop_gcpoints;
    }
  in
  if timings then Telemetry.Control.enable ();
  try
    let source = read_file file in
    let prog = Driver.Compile.to_mir ~options source in
    if dump_mir then
      Array.iter
        (fun f -> print_string (Mir.Mir_print.func_to_string prog f))
        prog.Mir.Ir.funcs;
    let img = Driver.Compile.image_of_mir ~options prog in
    if dump_code then begin
      Array.iteri
        (fun i insn ->
          let fid = Vm.Image.proc_of_code_index img i in
          if img.Vm.Image.procs.(fid).Vm.Image.pi_entry = i then
            Printf.printf "%s:\n" img.Vm.Image.procs.(fid).Vm.Image.pi_name;
          Format.printf "  %4d: %a@." i
            (Machine.Insn.pp ~callee_name:(function
              | `Proc fid -> Some img.Vm.Image.procs.(fid).Vm.Image.pi_name))
            insn)
        img.Vm.Image.code
    end;
    if dump_tables then
      Array.iter
        (fun (pm : Gcmaps.Rawmaps.proc_maps) ->
          Printf.printf "procedure %s (frame=%d words, %d args, code=%d bytes)\n"
            pm.Gcmaps.Rawmaps.pm_name pm.Gcmaps.Rawmaps.pm_frame_size
            pm.Gcmaps.Rawmaps.pm_nargs pm.Gcmaps.Rawmaps.pm_code_bytes;
          List.iter
            (fun gp -> Format.printf "  %a@." Gcmaps.Rawmaps.pp_gcpoint gp)
            pm.Gcmaps.Rawmaps.pm_gcpoints)
        img.Vm.Image.rawmaps;
    if stats then begin
      let s = Gcmaps.Table_stats.compute img.Vm.Image.rawmaps in
      Printf.printf "code bytes : %d\n" s.Gcmaps.Table_stats.size_bytes;
      Printf.printf "gc-points  : %d (%d with non-empty tables)\n"
        s.Gcmaps.Table_stats.ngcpoints s.Gcmaps.Table_stats.ngc;
      Printf.printf "NPTRS=%d NDEL=%d NREG=%d NDER=%d\n" s.Gcmaps.Table_stats.nptrs
        s.Gcmaps.Table_stats.ndel s.Gcmaps.Table_stats.nreg s.Gcmaps.Table_stats.nder;
      List.iter
        (fun (name, pct) -> Printf.printf "%-16s %6.1f%% of code\n" name pct)
        (Gcmaps.Table_stats.size_percentages img.Vm.Image.rawmaps)
    end;
    if timings then begin
      Printf.printf "pass timings (wall clock):\n";
      print_string (Telemetry.Trace.to_text ());
      (* The proxy count next to the wall times it explains. *)
      List.iter
        (fun name -> Printf.printf "%-28s %8d\n" name (Telemetry.Metrics.counter_value name))
        [ "opt.loop_analyses"; "opt.loop_analysis_reuses" ]
    end;
    if not (dump_mir || dump_code || dump_tables || stats || timings) then
      Printf.printf "%s: %d instructions, %d code bytes, %d bytes of gc tables\n" file
        (Array.length img.Vm.Image.code)
        img.Vm.Image.code_bytes
        (Gcmaps.Encode.total_table_bytes img.Vm.Image.tables);
    `Ok ()
  with
  | M3l.M3l_error.Lex_error (loc, m) ->
      `Error (false, Printf.sprintf "%s: lexical error: %s" (M3l.Srcloc.to_string loc) m)
  | M3l.M3l_error.Parse_error (loc, m) ->
      `Error (false, Printf.sprintf "%s: parse error: %s" (M3l.Srcloc.to_string loc) m)
  | M3l.M3l_error.Type_error (loc, m) ->
      `Error (false, Printf.sprintf "%s: type error: %s" (M3l.Srcloc.to_string loc) m)
  | Sys_error m -> `Error (false, m)

let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")
let optimize = Arg.(value & flag & info [ "O"; "optimize" ] ~doc:"Run the optimizer.")
let checks =
  Arg.(value & opt bool true & info [ "checks" ] ~doc:"NIL/bounds checks (default on).")
let no_gc_restrict =
  Arg.(
    value & flag
    & info [ "no-gc-restrict" ]
        ~doc:"Disable gc restrictions (section 6.2 measurement mode; unsafe for gc).")
let loop_gcpoints =
  Arg.(value & flag & info [ "loop-gcpoints" ] ~doc:"Guarantee a gc-point in every loop.")
let dump_mir = Arg.(value & flag & info [ "dump-mir" ] ~doc:"Print the MIR.")
let dump_code = Arg.(value & flag & info [ "dump-code" ] ~doc:"Print UVM assembly.")
let dump_tables =
  Arg.(value & flag & info [ "dump-tables" ] ~doc:"Print the per-gc-point gc tables.")
let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print table statistics.")
let timings =
  Arg.(value & flag & info [ "timings" ] ~doc:"Print per-pass compile timings.")

let cmd =
  let doc = "compile M3L and inspect the generated gc tables" in
  Cmd.v
    (Cmd.info "mmc" ~doc)
    Term.(
      ret
        (const run_compiler $ file $ optimize $ checks $ no_gc_restrict $ loop_gcpoints
       $ dump_mir $ dump_code $ dump_tables $ stats $ timings))

let () = exit (Cmd.eval cmd)
