(** Constant folding and algebraic simplification, including folding
    conditional branches on constant operands. Division and modulo follow
    Modula-3 semantics (round toward minus infinity) and are not folded when
    the divisor is zero (the trap must still happen at run time). *)

module Ir = Mir.Ir

let eval_binop (op : Ir.binop) a b : int option =
  match op with
  | Ir.Add -> Some (a + b)
  | Ir.Sub -> Some (a - b)
  | Ir.Mul -> Some (a * b)
  | Ir.Div -> if b = 0 then None else Some (Support.Ints.m3_div a b)
  | Ir.Mod -> if b = 0 then None else Some (Support.Ints.m3_mod a b)
  | Ir.Min -> Some (min a b)
  | Ir.Max -> Some (max a b)

let eval_relop (r : Ir.relop) a b =
  match r with
  | Ir.Req -> a = b
  | Ir.Rne -> a <> b
  | Ir.Rlt -> a < b
  | Ir.Rle -> a <= b
  | Ir.Rgt -> a > b
  | Ir.Rge -> a >= b

let fold_instr (i : Ir.instr) : Ir.instr option =
  match i with
  | Ir.Bin (op, d, Ir.Oimm a, Ir.Oimm b) -> (
      match eval_binop op a b with Some v -> Some (Ir.Mov (d, Ir.Oimm v)) | None -> None)
  | Ir.Bin (Ir.Add, d, s, Ir.Oimm 0) | Ir.Bin (Ir.Add, d, Ir.Oimm 0, s) ->
      Some (Ir.Mov (d, s))
  | Ir.Bin (Ir.Sub, d, s, Ir.Oimm 0) -> Some (Ir.Mov (d, s))
  | Ir.Bin (Ir.Mul, d, s, Ir.Oimm 1) | Ir.Bin (Ir.Mul, d, Ir.Oimm 1, s) ->
      Some (Ir.Mov (d, s))
  | Ir.Bin (Ir.Mul, d, _, Ir.Oimm 0) | Ir.Bin (Ir.Mul, d, Ir.Oimm 0, _) ->
      Some (Ir.Mov (d, Ir.Oimm 0))
  | Ir.Neg (d, Ir.Oimm n) -> Some (Ir.Mov (d, Ir.Oimm (-n)))
  | Ir.Abs (d, Ir.Oimm n) -> Some (Ir.Mov (d, Ir.Oimm (abs n)))
  | Ir.Setrel (r, d, Ir.Oimm a, Ir.Oimm b) ->
      Some (Ir.Mov (d, Ir.Oimm (if eval_relop r a b then 1 else 0)))
  | _ -> None

let run (_prog : Ir.program) (f : Ir.func) : bool =
  let changed = ref false in
  Array.iter
    (fun (blk : Ir.block) ->
      blk.Ir.instrs <-
        List.map
          (fun i ->
            match fold_instr i with
            | Some i' ->
                changed := true;
                i'
            | None -> i)
          blk.Ir.instrs;
      match blk.Ir.term with
      | Ir.Cjmp (r, Ir.Oimm a, Ir.Oimm b, tl, fl) ->
          changed := true;
          blk.Ir.term <- Ir.Jmp (if eval_relop r a b then tl else fl)
      | Ir.Cjmp (_, _, _, tl, fl) when tl = fl ->
          changed := true;
          blk.Ir.term <- Ir.Jmp tl
      | _ -> ())
    f.Ir.blocks;
  !changed
