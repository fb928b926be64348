(** The optimization pipeline. Passes transform MIR in place and must keep
    the gc kinds (derivations) of temps correct — the bookkeeping burden the
    paper adds to gcc's optimizer (§2, §4).

    Pass order, per function, iterated to a local fixed point:
    copy propagation → constant folding → CSE → virtual array origin →
    strength reduction → LICM (with path variables for hoisted ambiguous
    derivations) → dead code elimination. {!Layout} then runs once, on the
    fixed point. *)

type options = {
  copyprop : bool;
  constfold : bool;
  pathvar : bool;
  cse : bool;
  virtual_origin : bool;
  strength : bool;
  licm : bool;
  dce : bool;
  layout : bool;
}

let all_on =
  {
    copyprop = true;
    constfold = true;
    pathvar = true;
    cse = true;
    virtual_origin = true;
    strength = true;
    licm = true;
    dce = true;
    layout = true;
  }

let c_loop_analyses = Telemetry.Metrics.counter "opt.loop_analyses"
let c_loop_reuses = Telemetry.Metrics.counter "opt.loop_analysis_reuses"

(** Optimize one function. [cfg], its loop analysis, is shared by pathvar,
    strength, licm and layout. Every pass runs as [wrap name cfg pass];
    tests wrap passes to check state at each pass boundary. *)
let func ?(opts = all_on) ?(wrap = fun _ _ pass -> pass ()) prog (f : Mir.Ir.func) =
  let cfg = Mir.Cfg.analysis () in
  let budget = ref 6 in
  let changed = ref true in
  while !changed && !budget > 0 do
    changed := false;
    (* Each pass is timed individually so `mmc --timings` breaks the
       optimizer down per pass across all fixed-point iterations. *)
    let step cond name pass =
      if cond && Telemetry.Trace.span ~cat:"opt" name (fun () -> wrap name cfg pass) then
        changed := true
    in
    step opts.copyprop "opt.copyprop" (fun () -> Copyprop.run prog f);
    step opts.constfold "opt.constfold" (fun () -> Constfold.run prog f);
    step opts.pathvar "opt.pathvar" (fun () -> Pathvar.run cfg f);
    step opts.cse "opt.cse" (fun () -> Cse.run prog f);
    step opts.virtual_origin "opt.virtual_origin" (fun () -> Virtual_origin.run prog f);
    step opts.strength "opt.strength" (fun () -> Strength.run cfg f);
    step opts.licm "opt.licm" (fun () -> Licm.run cfg f);
    step opts.dce "opt.dce" (fun () -> Dce.run prog f);
    decr budget
  done;
  if opts.layout then
    ignore
      (Telemetry.Trace.span ~cat:"opt" "opt.layout" (fun () ->
           wrap "opt.layout" cfg (fun () -> Layout.run cfg f)));
  Telemetry.Metrics.incr ~by:cfg.Mir.Cfg.computed c_loop_analyses;
  Telemetry.Metrics.incr ~by:cfg.Mir.Cfg.reused c_loop_reuses

let optimize ?(opts = all_on) (prog : Mir.Ir.program) : unit =
  Telemetry.Trace.span ~cat:"compile" "opt.pipeline" (fun () ->
      Array.iter (func ~opts prog) prog.Mir.Ir.funcs)
