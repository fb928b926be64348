(* Checks of the O1 layout pass, test-only.

   [check_source] lowers a program, runs the optimizer with the layout
   pass off, then lays out a copy of every function, and reports the first
   place where
   - the live temps or locals at a call differ between the two. Calls are
     matched by physical identity: layout moves blocks and appends copied
     loop tests to latches, but never rebuilds or duplicates a call;
   - the laid-out entry is not the original entry, a block is unreachable,
     or a block is an empty [Jmp] that does not jump to itself;
   - in the O1 image, a [Jmp] or [Cbr] targets a [Jmp]. *)

module Ir = Mir.Ir

let calls (f : Ir.func) =
  List.concat
    (Array.to_list
       (Array.mapi
          (fun b (blk : Ir.block) ->
            List.concat
              (List.mapi
                 (fun i instr -> match instr with Ir.Call _ -> [ (instr, b, i) ] | _ -> [])
                 blk.Ir.instrs))
          f.Ir.blocks))

let reachable (f : Ir.func) =
  let seen = Array.make (Array.length f.Ir.blocks) false in
  Array.iter (fun b -> seen.(b) <- true) (Mir.Cfg.reverse_postorder f);
  seen

let elements s = Support.Bitset.fold (fun x acc -> x :: acc) s []

let check_func (f : Ir.func) : string option =
  let g = Opt_oracle.copy f in
  let entry = g.Ir.blocks.(0) in
  ignore (Opt.Layout.run (Mir.Cfg.analysis ()) g);
  let problem = ref None in
  let report fmt =
    Printf.ksprintf (fun s -> if !problem = None then problem := Some s) fmt
  in
  if g.Ir.blocks.(0) != entry then report "%s: the entry moved" f.Ir.fname;
  let live_f = Mir.Liveness.compute f and live_g = Mir.Liveness.compute g in
  let seen_f = reachable f in
  let calls_f = calls f and calls_g = calls g in
  let reachable_calls = List.filter (fun (_, b, _) -> seen_f.(b)) calls_f in
  if List.length calls_g <> List.length reachable_calls then
    report "%s: %d calls laid out from %d reachable" f.Ir.fname (List.length calls_g)
      (List.length reachable_calls);
  List.iter
    (fun (call, b, i) ->
      match List.find_opt (fun (c, _, _) -> c == call) reachable_calls with
      | None -> report "%s: a call in block %d is new" f.Ir.fname b
      | Some (_, b0, i0) ->
          let t0, l0 = Mir.Liveness.live_at_gcpoint live_f b0 i0 in
          let t, l = Mir.Liveness.live_at_gcpoint live_g b i in
          if elements t0 <> elements t || elements l0 <> elements l then
            report "%s: the roots at the call L%d.%d (now L%d.%d) changed" f.Ir.fname b0 i0 b i)
    calls_g;
  Array.iteri
    (fun b seen -> if not seen then report "%s: block %d is unreachable" f.Ir.fname b)
    (reachable g);
  Array.iteri
    (fun b (blk : Ir.block) ->
      match blk with
      | { Ir.instrs = []; term = Ir.Jmp l } when l <> b ->
          report "%s: block %d is an empty jump" f.Ir.fname b
      | _ -> ())
    g.Ir.blocks;
  !problem

let check_code (code : Machine.Insn.t array) : string option =
  let module I = Machine.Insn in
  let is_jmp t = match code.(t) with I.Jmp t' -> t' <> t | _ -> false in
  let bad = ref None in
  Array.iteri
    (fun pc insn ->
      match insn with
      | (I.Jmp t | I.Cbr (_, _, _, t)) when !bad = None && is_jmp t ->
          bad := Some (Printf.sprintf "the branch at %d targets the jump at %d" pc t)
      | _ -> ())
    code;
  !bad

let check_source src : string option =
  let options = { Driver.Compile.default_options with optimize = true } in
  let prog =
    Mir.Lower.program ~checks:options.Driver.Compile.checks (M3l.Typecheck.check_source src)
  in
  Opt.Pipeline.optimize ~opts:{ Opt.Pipeline.all_on with layout = false } prog;
  match List.find_map check_func (Array.to_list prog.Ir.funcs) with
  | Some _ as p -> p
  | None -> check_code (Driver.Compile.compile ~options src).Vm.Image.code
