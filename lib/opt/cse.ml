(** Common-subexpression elimination over extended basic blocks
    ({!Mir.Cfg.ebb_walk}): a block starts from what its only way in
    knew.

    Address computations are prime candidates (the paper's §2 CSE example:
    [&A\[i\]] reused across two element accesses); reusing them extends the
    lifetime of derived values across gc-points, which is exactly what the
    derivation tables must then describe.

    Memory-reading expressions are invalidated conservatively. A load
    through an address ends at any store or call. A load of a local slot
    ends at a store to the slot, and, when the slot's address has been
    taken, at a call or a store through an address (a callee or an alias
    could write through it). A load of a global ends at a store to it and
    at any call, and, when its address has been taken, at a store through
    an address. A store by name to a global or local whose address is
    taken also ends every load through an address, since an array indexed
    by a variable is read that way. A store to a slot whose address is
    never taken forwards the stored temp to later loads of the slot, when
    the two temps have the same kind. *)

module Ir = Mir.Ir

type key =
  | Kbin of Ir.binop * Ir.operand * Ir.operand
  | Ksetrel of Ir.relop * Ir.operand * Ir.operand
  | Kneg of Ir.operand
  | Kabs of Ir.operand
  | Klda_local of int * int
  | Klda_global of int * int
  | Klda_text of int
  | Kld_local of int * int
  | Kld_global of int * int
  | Kload of Ir.operand * int

let key_of (i : Ir.instr) : key option =
  match i with
  | Ir.Bin (op, _, a, b) when op <> Ir.Div && op <> Ir.Mod -> Some (Kbin (op, a, b))
  | Ir.Setrel (r, _, a, b) -> Some (Ksetrel (r, a, b))
  | Ir.Neg (_, s) -> Some (Kneg s)
  | Ir.Abs (_, s) -> Some (Kabs s)
  | Ir.Lda_local (_, l, o) -> Some (Klda_local (l, o))
  | Ir.Lda_global (_, g, o) -> Some (Klda_global (g, o))
  | Ir.Lda_text (_, x) -> Some (Klda_text x)
  | Ir.Ld_local (_, l, o) -> Some (Kld_local (l, o))
  | Ir.Ld_global (_, g, o) -> Some (Kld_global (g, o))
  | Ir.Load (_, a, o) -> Some (Kload (a, o))
  | _ -> None

(* Comparisons written out, since the tables are searched linearly and a
   polymorphic compare per entry would dominate the pass. *)
let same_operand (a : Ir.operand) (b : Ir.operand) =
  match (a, b) with
  | Ir.Otemp x, Ir.Otemp y | Ir.Oimm x, Ir.Oimm y -> x = y
  | Ir.Otemp _, Ir.Oimm _ | Ir.Oimm _, Ir.Otemp _ -> false

let same_key k k' =
  match (k, k') with
  | Kbin (op, a, b), Kbin (op', a', b') -> op == op' && same_operand a a' && same_operand b b'
  | Ksetrel (r, a, b), Ksetrel (r', a', b') -> r == r' && same_operand a a' && same_operand b b'
  | Kneg a, Kneg a' | Kabs a, Kabs a' -> same_operand a a'
  | Kload (a, o), Kload (a', o') -> o = o' && same_operand a a'
  | Klda_local (x, y), Klda_local (x', y')
  | Klda_global (x, y), Klda_global (x', y')
  | Kld_local (x, y), Kld_local (x', y')
  | Kld_global (x, y), Kld_global (x', y') ->
      x = x' && y = y'
  | Klda_text x, Klda_text x' -> x = x'
  | ( ( Kbin _ | Ksetrel _ | Kneg _ | Kabs _ | Kload _ | Klda_local _ | Klda_global _
      | Kld_local _ | Kld_global _ | Klda_text _ ),
      _ ) ->
      false

let rec find_key k = function
  | [] -> None
  | (k', v) :: rest -> if same_key k k' then Some v else find_key k rest

let key_mentions_temp t = function
  | Kbin (_, a, b) | Ksetrel (_, a, b) -> Ir.is_temp t a || Ir.is_temp t b
  | Kneg s | Kabs s | Kload (s, _) -> Ir.is_temp t s
  | Klda_local _ | Klda_global _ | Klda_text _ | Kld_local _ | Kld_global _ -> false

(* What one point of an extended basic block knows: available expressions
   and the temp holding each, and the copies CSE's own hits made, which it
   propagates itself so that no later round is needed to fold them. *)
type state = { avail : (key * int) list; copies : Copyprop.env }

let run (prog : Ir.program) (f : Ir.func) : bool =
  let changed = ref false in
  let tracked l = not f.Ir.locals.(l).Ir.l_addr_taken in
  let addressed g = prog.Ir.globals.(g).Ir.g_addr_taken in
  (* Over-approximations of what any state of the walk may hold, so that
     the common definition or store, which invalidates nothing, costs no
     scan: temps named by an entry or a copy, and locals with a load
     entry. *)
  let named = Array.make f.Ir.ntemps false and keyed = Array.make (Array.length f.Ir.locals) false in
  let name = function Ir.Otemp t -> named.(t) <- true | Ir.Oimm _ -> () in
  let add_key avail k v =
    named.(v) <- true;
    (match k with
    | Kbin (_, a, b) | Ksetrel (_, a, b) ->
        name a;
        name b
    | Kneg a | Kabs a -> name a
    | Kload (a, _) -> name a
    | Kld_local (l, _) -> keyed.(l) <- true
    | Kld_global _ | Klda_local _ | Klda_global _ | Klda_text _ -> ());
    (k, v) :: avail
  in
  Mir.Cfg.ebb_walk f ~init:{ avail = []; copies = [] } (fun st (blk : Ir.block) ->
      let avail = ref st.avail and copies = ref st.copies in
      let kill p =
        if List.exists (fun (k, v) -> p k v) !avail then
          avail := List.filter (fun (k, v) -> not (p k v)) !avail
      in
      let on_def t =
        if named.(t) then begin
          kill (fun k v -> v = t || key_mentions_temp t k);
          copies := Copyprop.forget t !copies
        end
      in
      let instrs =
        List.map
          (fun i ->
            let i =
              if !copies = [] then i else Ir.map_instr_uses (Copyprop.subst changed !copies) i
            in
            let key = key_of i and def = Ir.instr_def i in
            let hit =
              match (key, def) with
              | Some k, Some d -> (
                  match find_key k !avail with
                  | Some s when s <> d -> (
                      (* A load may be given the value stored to its slot,
                         which need not have the load's kind. *)
                      match k with
                      | Kld_local _ when Ir.temp_kind f s <> Ir.temp_kind f d -> None
                      | _ -> Some s)
                  | Some _ | None -> None)
              | _ -> None
            in
            (* Kill invalidated entries, then record the new value. *)
            (match i with
            | Ir.St_local (l, _, _) when not (tracked l) ->
                kill (fun k _ ->
                    match k with Kload _ -> true | Kld_local (l', _) -> l' = l | _ -> false)
            | Ir.St_local (l, _, _) ->
                if keyed.(l) then
                  kill (fun k _ -> match k with Kld_local (l', _) -> l' = l | _ -> false)
            | Ir.St_global (g, _, _) ->
                kill (fun k _ ->
                    match k with
                    | Kload _ -> addressed g
                    | Kld_global (g', _) -> g' = g
                    | _ -> false)
            | Ir.Store _ | Ir.Store_nb _ ->
                (* A store through a pointer may write any global or local
                   whose address is taken. *)
                kill (fun k _ ->
                    match k with
                    | Kload _ -> true
                    | Kld_global (g, _) -> addressed g
                    | Kld_local (l, _) -> not (tracked l)
                    | _ -> false)
            | Ir.Call _ ->
                kill (fun k _ ->
                    match k with
                    | Kload _ | Kld_global _ -> true
                    | Kld_local (l, _) -> not (tracked l)
                    | _ -> false)
            | _ -> ());
            Option.iter on_def def;
            match (hit, def) with
            | Some s, Some d ->
                changed := true;
                copies := (d, Ir.Otemp s) :: !copies;
                named.(d) <- true;
                named.(s) <- true;
                Ir.Mov (d, Ir.Otemp s)
            | _ ->
                (match (i, key, def) with
                | Ir.Mov _, _, _ -> ()
                | _, Some k, Some d -> avail := add_key !avail k d
                | _ -> ());
                (* A store to a slot only St_local writes makes the stored
                   temp the slot's value for later loads. *)
                (match i with
                | Ir.St_local (l, o, Ir.Otemp t) when tracked l ->
                    avail := add_key !avail (Kld_local (l, o)) t
                | _ -> ());
                i)
          blk.Ir.instrs
      in
      blk.Ir.instrs <- instrs;
      if !copies <> [] then
        blk.Ir.term <- Ir.map_term_uses (Copyprop.subst changed !copies) blk.Ir.term;
      { avail = !avail; copies = !copies });
  !changed
