(** The optimization pipeline. Passes transform MIR in place and must keep
    the gc kinds (derivations) of temps correct — the bookkeeping burden the
    paper adds to gcc's optimizer (§2, §4).

    Per function, {!Nonnil} runs first, so that every later pass sees the
    blocks its decided NIL checks chain together. The rest iterate to a
    local fixed point: copy propagation → constant folding → CSE → virtual
    array origin → strength reduction → LICM (with path variables for
    hoisted ambiguous derivations) → dead code elimination, until a round
    in which no pass but CSE and DCE changed anything (a rule measured on
    the corpus, not proved: see [func]). {!Promote} then turns the
    frame locals that need no slot into temps, once, followed by copy
    propagation and DCE; it runs after the loop so that strength
    reduction's marching pointers, path variables and every derived slot
    exist and stay in the frame. {!Nonnil} runs again on the result, for
    the checks of heap and global loads that CSE found to repeat an
    earlier load and of the locals now in temps (followed by DCE when it
    decides any), and {!Layout} runs last. *)

type options = {
  nonnil : bool;
  audit_checks : bool;
      (** tests only: {!Nonnil} keeps each check it proves dead, with a
          trap on its NIL edge *)
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
    nonnil = true;
    audit_checks = false;
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
  (* Each pass is timed individually so `mmc --timings` breaks the
     optimizer down per pass across all fixed-point iterations. *)
  let run name pass = Telemetry.Trace.span ~cat:"opt" name (fun () -> wrap name cfg pass) in
  let again = ref true in
  let step cond name pass = if cond && run name pass then again := true in
  (* A change by CSE or DCE alone calls for no further round. CSE
     substitutes the copies it makes itself, and the passes after it in
     the round have seen its output. The rule is a heuristic: a DCE that
     deletes a dead store could let the next round's CSE or LICM find
     more. On the corpus, counting DCE's changes too gives the same code
     in 86 function-rounds instead of 62, and counting both CSE's and
     DCE's in 90. *)
  let settle cond name pass = ignore (cond && run name pass) in
  let nonnil () =
    opts.nonnil && run "opt.nonnil" (fun () -> Nonnil.run ~audit:opts.audit_checks prog f)
  in
  ignore (nonnil ());
  let budget = ref 6 in
  while !again && !budget > 0 do
    again := false;
    step opts.copyprop "opt.copyprop" (fun () -> Copyprop.run prog f);
    step opts.constfold "opt.constfold" (fun () -> Constfold.run prog f);
    step opts.pathvar "opt.pathvar" (fun () -> Pathvar.run prog cfg f);
    settle opts.cse "opt.cse" (fun () -> Cse.run prog f);
    step opts.virtual_origin "opt.virtual_origin" (fun () -> Virtual_origin.run prog f);
    step opts.strength "opt.strength" (fun () -> Strength.run prog cfg f);
    step opts.licm "opt.licm" (fun () -> Licm.run prog cfg f);
    settle opts.dce "opt.dce" (fun () -> Dce.run prog f);
    decr budget
  done;
  if run "opt.promote" (fun () -> Promote.run prog f) then begin
    settle opts.copyprop "opt.copyprop" (fun () -> Copyprop.run prog f);
    settle opts.dce "opt.dce" (fun () -> Dce.run prog f)
  end;
  if nonnil () then settle opts.dce "opt.dce" (fun () -> Dce.run prog f);
  settle opts.layout "opt.layout" (fun () -> Layout.run cfg f);
  Telemetry.Metrics.incr ~by:cfg.Mir.Cfg.computed c_loop_analyses;
  Telemetry.Metrics.incr ~by:cfg.Mir.Cfg.reused c_loop_reuses

let optimize ?(opts = all_on) (prog : Mir.Ir.program) : unit =
  Telemetry.Trace.span ~cat:"compile" "opt.pipeline" (fun () ->
      Array.iter (func ~opts prog) prog.Mir.Ir.funcs)
