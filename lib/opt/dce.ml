(** Dead code elimination.

    A pure instruction whose destination is never needed is removed.
    "Needed" includes the paper's dead-base rule: the bases of a derivation
    are needed wherever the derived value is (the collector must be able to
    update it), so an instruction computing a base value survives as long as
    anything derived from it does — this is precisely how the compiler
    "retains the base values for the lifetime of the values derived from
    them" (§4). *)

module Ir = Mir.Ir
module Iset = Support.Ints.Iset

let has_side_effects (i : Ir.instr) =
  match i with
  | Ir.St_local _ | Ir.St_global _ | Ir.Store _ | Ir.Store_nb _ | Ir.Call _ -> true
  | Ir.Bin ((Ir.Div | Ir.Mod), _, _, Ir.Oimm n) -> n = 0 (* keep the trap *)
  | Ir.Bin ((Ir.Div | Ir.Mod), _, _, (Ir.Otemp _ : Ir.operand)) -> true
  | Ir.Mov _ | Ir.Bin _ | Ir.Neg _ | Ir.Abs _ | Ir.Setrel _ | Ir.Ld_local _
  | Ir.Ld_global _ | Ir.Lda_local _ | Ir.Lda_global _ | Ir.Lda_text _ | Ir.Load _ ->
      false

let run (_prog : Ir.program) (f : Ir.func) : bool =
  (* A worklist over temps: [needed] is the set, [defs.(t)] the instructions
     defining [t], whose uses become needed when [t] does. *)
  let needed = Array.make f.Ir.ntemps false in
  let defs = Array.make f.Ir.ntemps [] in
  let work = ref [] in
  let need t =
    if not needed.(t) then begin
      needed.(t) <- true;
      work := t :: !work
    end
  in
  let note (o : Ir.operand) = match o with Ir.Otemp t -> need t | Ir.Oimm _ -> () in
  let note_deriv (d : Mir.Deriv.t) =
    List.iter
      (function Mir.Deriv.Btemp t -> need t | Mir.Deriv.Blocal _ -> ())
      (Mir.Deriv.bases d)
  in
  (* Seed: temps read by side-effecting instructions and terminators, and
     the bases of derived slots, needed as long as the slot may be live —
     conservatively, always. *)
  Array.iter
    (fun (li : Ir.local_info) ->
      match li.Ir.l_slot with
      | Ir.Sderived d -> note_deriv d
      | Ir.Sambig a -> List.iter (fun (_, d) -> note_deriv d) a.Ir.cases
      | Ir.Sscalar | Ir.Sptr | Ir.Saddr | Ir.Saggregate _ -> ())
    f.Ir.locals;
  Array.iter
    (fun (blk : Ir.block) ->
      List.iter
        (fun i ->
          if has_side_effects i then List.iter note (Ir.instr_uses i);
          match Ir.instr_def i with Some d -> defs.(d) <- i :: defs.(d) | None -> ())
        blk.Ir.instrs;
      List.iter note (Ir.term_uses blk.Ir.term))
    f.Ir.blocks;
  (* Closure: a needed temp's defining instructions' uses are needed, and
     the bases of a needed derived temp are needed. *)
  let rec drain () =
    match !work with
    | [] -> ()
    | t :: rest ->
        work := rest;
        List.iter (fun i -> List.iter note (Ir.instr_uses i)) defs.(t);
        (match Ir.temp_kind f t with
        | Ir.Kderived d -> note_deriv d
        | Ir.Kscalar | Ir.Kptr | Ir.Kstack -> ());
        drain ()
  in
  drain ();
  let keep i =
    has_side_effects i || match Ir.instr_def i with Some d -> needed.(d) | None -> true
  in
  let removed = ref false in
  Array.iter
    (fun (blk : Ir.block) ->
      if not (List.for_all keep blk.Ir.instrs) then begin
        removed := true;
        blk.Ir.instrs <- List.filter keep blk.Ir.instrs
      end)
    f.Ir.blocks;
  !removed
