(** Copy and constant propagation over extended basic blocks: uses of a
    temp defined by [t := s] are replaced by [s] while the copy is
    transparent, in its block and in the blocks whose only way in runs
    through it ({!Mir.Cfg.ebb_walk}). *)

module Ir = Mir.Ir

(** The copies in force, newest first: [(d, s)] stands for [d := s].
    {!Cse} keeps one for the copies its own hits make. *)
type env = (Ir.temp * Ir.operand) list

let rec find t = function
  | [] -> None
  | (t', o) :: rest -> if t' = t then Some o else find t rest

(** [o] with a copied temp replaced by its source; sets [changed] when it
    replaces one. *)
let subst changed (env : env) (o : Ir.operand) =
  match o with
  | Ir.Oimm _ -> o
  | Ir.Otemp t -> (
      match find t env with
      | Some o' ->
          changed := true;
          o'
      | None -> o)

(** [env] without the copies a definition of [d] ends: those into or out
    of [d]. *)
let forget d (env : env) =
  let stale (t, v) = t = d || Ir.is_temp d v in
  if List.exists stale env then List.filter (fun c -> not (stale c)) env else env

let run (_prog : Ir.program) (f : Ir.func) : bool =
  let changed = ref false in
  Mir.Cfg.ebb_walk f ~init:[] (fun env (blk : Ir.block) ->
      let env = ref env in
      let instrs =
        List.map
          (fun i ->
            let i' = Ir.map_instr_uses (subst changed !env) i in
            Option.iter (fun d -> env := forget d !env) (Ir.instr_def i');
            (match i' with
            | Ir.Mov (d, src) when not (Ir.is_temp d src) -> env := (d, src) :: !env
            | _ -> ());
            i')
          blk.Ir.instrs
      in
      blk.Ir.instrs <- instrs;
      blk.Ir.term <- Ir.map_term_uses (subst changed !env) blk.Ir.term;
      !env);
  !changed
