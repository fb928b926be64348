(** Virtual array origin (paper §2).

    Accessing [A\[i\]] for [A : ARRAY \[lo..hi\] OF T] with nonzero [lo]
    naively computes [base + (i - lo) * esz]. The subtraction is avoided by
    rewriting to [(base - lo*esz) + i*esz]: the parenthesized part is the
    {e virtual origin} — an untidy pointer that may point outside the object
    it refers to, and must therefore be described as a derived value.

    Pattern (produced by lowering, possibly after CSE):
    {v  t1 := sub i, lo ; t2 := mul t1, esz ; t3 := add base, t2  v}
    (or without the [mul] when [esz = 1]) rewrites to
    {v  tv := add base, -(lo*esz) ; t2' := mul i, esz ; t3 := add tv, t2'  v}
    The derivation recorded for [t3] keeps its original bases, which remain
    valid ([t3 = Σbases + E'] still holds with the new [E']). *)

module Ir = Mir.Ir

let run (_prog : Ir.program) (f : Ir.func) : bool =
  let changed = ref false in
  (* Count uses so we only rewrite single-use chains. *)
  let uses = Array.make f.Ir.ntemps 0 in
  let count (o : Ir.operand) =
    match o with Ir.Otemp t -> uses.(t) <- uses.(t) + 1 | Ir.Oimm _ -> ()
  in
  Array.iter
    (fun (blk : Ir.block) ->
      List.iter (fun i -> List.iter count (Ir.instr_uses i)) blk.Ir.instrs;
      List.iter count (Ir.term_uses blk.Ir.term))
    f.Ir.blocks;
  Array.iter
    (fun (blk : Ir.block) ->
      let rec rewrite (instrs : Ir.instr list) : Ir.instr list =
        match instrs with
        (* t1 := i - lo ; t2 := t1 * esz ; t3 := base + t2 *)
        | Ir.Bin (Ir.Sub, t1, i_op, Ir.Oimm lo)
          :: Ir.Bin (Ir.Mul, t2, Ir.Otemp t1', Ir.Oimm esz)
          :: Ir.Bin (Ir.Add, t3, base, Ir.Otemp t2')
          :: rest
          when t1 = t1' && t2 = t2' && lo <> 0 && uses.(t1) = 1 && uses.(t2) = 1
               && Ir.is_pointer f base ->
            changed := true;
            let d = Ir.deriv_of f base in
            let tv = Ir.fresh_temp f (Ir.Kderived d) in
            Ir.Bin (Ir.Add, tv, base, Ir.Oimm (-lo * esz))
            :: Ir.Bin (Ir.Mul, t2, i_op, Ir.Oimm esz)
            :: Ir.Bin (Ir.Add, t3, Ir.Otemp tv, Ir.Otemp t2)
            :: rewrite rest
        (* esz = 1: t1 := i - lo ; t3 := base + t1 *)
        | Ir.Bin (Ir.Sub, t1, i_op, Ir.Oimm lo)
          :: Ir.Bin (Ir.Add, t3, base, Ir.Otemp t1')
          :: rest
          when t1 = t1' && lo <> 0 && uses.(t1) = 1 && Ir.is_pointer f base ->
            changed := true;
            let d = Ir.deriv_of f base in
            let tv = Ir.fresh_temp f (Ir.Kderived d) in
            Ir.Bin (Ir.Add, tv, base, Ir.Oimm (-lo))
            :: Ir.Bin (Ir.Add, t3, Ir.Otemp tv, i_op)
            :: rewrite rest
        | i :: rest -> i :: rewrite rest
        | [] -> []
      in
      blk.Ir.instrs <- rewrite blk.Ir.instrs)
    f.Ir.blocks;
  !changed
