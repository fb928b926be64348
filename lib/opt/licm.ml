(** Loop-invariant code motion.

    Pure computations whose operands are invariant in a loop are moved to a
    freshly inserted preheader. Address arithmetic is the interesting case
    for gc support: a hoisted (possibly untidy) address temp becomes live
    across every gc-point in the loop and must appear in the derivation
    tables there (paper §2's loop examples).

    Safety notes: memory-reading instructions are hoisted only out of the
    loop header (which runs at least once whenever the preheader does), so
    no speculative read can produce a garbage pointer; DIV/MOD are never
    hoisted (traps must not be made speculative). A load stays when an
    instruction of the loop may write what it reads ({!Mir.Ir.may_write}). *)

module Ir = Mir.Ir
module Iset = Support.Ints.Iset

let hoist_loop (prog : Ir.program) (f : Ir.func) (l : Mir.Cfg.loop) : bool =
  let body = l.Mir.Cfg.body in
  let in_body b = Iset.mem b body in
  (* Def blocks per temp, over the whole function. *)
  let def_blocks = Hashtbl.create 64 in
  let def_count = Array.make f.Ir.ntemps 0 in
  Array.iteri
    (fun b (blk : Ir.block) ->
      List.iter
        (fun i ->
          match Ir.instr_def i with
          | Some d ->
              def_count.(d) <- def_count.(d) + 1;
              Hashtbl.replace def_blocks d
                (Iset.add b
                   (match Hashtbl.find_opt def_blocks d with Some s -> s | None -> Iset.empty))
          | None -> ())
        blk.Ir.instrs)
    f.Ir.blocks;
  let invariant_op (o : Ir.operand) =
    match o with
    | Ir.Oimm _ -> true
    | Ir.Otemp t -> (
        match Hashtbl.find_opt def_blocks t with
        | None -> true (* no remaining def: only possible if dead *)
        | Some defs -> Iset.for_all (fun b -> not (in_body b)) defs)
  in
  let writers = Mir.Cfg.writers prog f l in
  let unwritten i = match Ir.loc_read i with Some loc -> writers loc = [] | None -> false in
  let hoistable ~in_header (i : Ir.instr) =
    (match Ir.instr_def i with Some d -> def_count.(d) = 1 | None -> false)
    && List.for_all invariant_op (Ir.instr_uses i)
    &&
    match i with
    | Ir.Mov _ | Ir.Neg _ | Ir.Abs _ | Ir.Setrel _ | Ir.Lda_local _ | Ir.Lda_global _
    | Ir.Lda_text _ -> true
    | Ir.Bin (op, _, _, _) -> op <> Ir.Div && op <> Ir.Mod
    | Ir.Ld_local _ | Ir.Ld_global _ -> unwritten i
    | Ir.Load _ -> in_header && unwritten i
    | Ir.St_local _ | Ir.St_global _ | Ir.Store _ | Ir.Store_nb _ | Ir.Call _ -> false
  in
  let preheader = ref None in
  let get_preheader () =
    match !preheader with
    | Some p -> p
    | None ->
        let p = Mir.Cfg.insert_preheader f l in
        preheader := Some p;
        p
  in
  let changed = ref false in
  let progress = ref true in
  while !progress do
    progress := false;
    Iset.iter
      (fun b ->
        let blk = f.Ir.blocks.(b) in
        let in_header = b = l.Mir.Cfg.header in
        let keep, hoist =
          List.partition (fun i -> not (hoistable ~in_header i)) blk.Ir.instrs
        in
        (* Memory loads outside the header stay; [hoistable] handled that. *)
        if hoist <> [] then begin
          let p = get_preheader () in
          let pblk = f.Ir.blocks.(p) in
          pblk.Ir.instrs <- pblk.Ir.instrs @ hoist;
          blk.Ir.instrs <- keep;
          (* Re-home the moved defs so they now count as invariant. *)
          List.iter
            (fun i ->
              match Ir.instr_def i with
              | Some d -> Hashtbl.replace def_blocks d (Iset.singleton p)
              | None -> ())
            hoist;
          changed := true;
          progress := true
        end)
      body
  done;
  !changed

let run (prog : Ir.program) (cfg : Mir.Cfg.analysis) (f : Ir.func) : bool =
  Mir.Cfg.visit_loops cfg f (hoist_loop prog f)
