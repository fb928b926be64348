(** Common-subexpression elimination over extended basic blocks
    ({!Mir.Cfg.ebb_walk}): a block starts from what its only way in
    knew.

    Address computations are prime candidates (the paper's §2 CSE example:
    [&A\[i\]] reused across two element accesses); reusing them extends the
    lifetime of derived values across gc-points, which is exactly what the
    derivation tables must then describe.

    A load stays available until an instruction that may write what it
    read ({!Mir.Ir.may_write}). A store to a slot forwards the stored temp
    to later loads of the slot, when the two temps have the same kind. *)

module Ir = Mir.Ir

type key =
  | Kbin of Ir.binop * Ir.operand * Ir.operand
  | Ksetrel of Ir.relop * Ir.operand * Ir.operand
  | Kneg of Ir.operand
  | Kabs of Ir.operand
  | Klda_local of int * int
  | Klda_global of int * int
  | Klda_text of int

let key_of (i : Ir.instr) : key option =
  match i with
  | Ir.Bin (op, _, a, b) when op <> Ir.Div && op <> Ir.Mod -> Some (Kbin (op, a, b))
  | Ir.Setrel (r, _, a, b) -> Some (Ksetrel (r, a, b))
  | Ir.Neg (_, s) -> Some (Kneg s)
  | Ir.Abs (_, s) -> Some (Kabs s)
  | Ir.Lda_local (_, l, o) -> Some (Klda_local (l, o))
  | Ir.Lda_global (_, g, o) -> Some (Klda_global (g, o))
  | Ir.Lda_text (_, x) -> Some (Klda_text x)
  | _ -> None

(* Comparisons written out, since the tables are searched linearly and a
   polymorphic compare per entry would dominate the pass. *)
let same_operand (a : Ir.operand) (b : Ir.operand) =
  match (a, b) with
  | Ir.Otemp x, Ir.Otemp y | Ir.Oimm x, Ir.Oimm y -> x = y
  | Ir.Otemp _, Ir.Oimm _ | Ir.Oimm _, Ir.Otemp _ -> false

let same_loc (l : Ir.loc) (l' : Ir.loc) =
  match (l, l') with
  | Ir.Lmem (a, o), Ir.Lmem (a', o') -> o = o' && same_operand a a'
  | Ir.Lslot (x, y), Ir.Lslot (x', y') | Ir.Lglobal (x, y), Ir.Lglobal (x', y') ->
      x = x' && y = y'
  | (Ir.Lmem _ | Ir.Lslot _ | Ir.Lglobal _), _ -> false

let same_key k k' =
  match (k, k') with
  | Kbin (op, a, b), Kbin (op', a', b') -> op == op' && same_operand a a' && same_operand b b'
  | Ksetrel (r, a, b), Ksetrel (r', a', b') -> r == r' && same_operand a a' && same_operand b b'
  | Kneg a, Kneg a' | Kabs a, Kabs a' -> same_operand a a'
  | Klda_local (x, y), Klda_local (x', y') | Klda_global (x, y), Klda_global (x', y') ->
      x = x' && y = y'
  | Klda_text x, Klda_text x' -> x = x'
  | (Kbin _ | Ksetrel _ | Kneg _ | Kabs _ | Klda_local _ | Klda_global _ | Klda_text _), _ ->
      false

let rec find same k = function
  | [] -> None
  | (k', v) :: rest -> if same k k' then Some v else find same k rest

let key_mentions_temp t = function
  | Kbin (_, a, b) | Ksetrel (_, a, b) -> Ir.is_temp t a || Ir.is_temp t b
  | Kneg s | Kabs s -> Ir.is_temp t s
  | Klda_local _ | Klda_global _ | Klda_text _ -> false

let loc_mentions_temp t = function
  | Ir.Lmem (a, _) -> Ir.is_temp t a
  | Ir.Lslot _ | Ir.Lglobal _ -> false

(* What one point of an extended basic block knows: available expressions,
   and apart from them the loads, which a write can end; the temp holding
   each; and the copies CSE's own hits made, which it propagates itself so
   that no later round is needed to fold them. *)
type state = { avail : (key * int) list; loads : (Ir.loc * int) list; copies : Copyprop.env }

let run (prog : Ir.program) (f : Ir.func) : bool =
  let changed = ref false in
  (* Temps named by an entry or a copy of any state of the walk, an
     over-approximation so that the common definition, which invalidates
     nothing, costs no scan. *)
  let named = Array.make f.Ir.ntemps false in
  let name = function Ir.Otemp t -> named.(t) <- true | Ir.Oimm _ -> () in
  let add_key avail k v =
    named.(v) <- true;
    (match k with
    | Kbin (_, a, b) | Ksetrel (_, a, b) ->
        name a;
        name b
    | Kneg a | Kabs a -> name a
    | Klda_local _ | Klda_global _ | Klda_text _ -> ());
    (k, v) :: avail
  in
  let add_load loads l v =
    named.(v) <- true;
    (match l with Ir.Lmem (a, _) -> name a | Ir.Lslot _ | Ir.Lglobal _ -> ());
    (l, v) :: loads
  in
  let drop p entries =
    if List.exists (fun (k, v) -> p k v) entries then
      List.filter (fun (k, v) -> not (p k v)) entries
    else entries
  in
  Mir.Cfg.ebb_walk f ~init:{ avail = []; loads = []; copies = [] } (fun st (blk : Ir.block) ->
      let avail = ref st.avail and loads = ref st.loads and copies = ref st.copies in
      let on_def t =
        if named.(t) then begin
          avail := drop (fun k v -> v = t || key_mentions_temp t k) !avail;
          loads := drop (fun l v -> v = t || loc_mentions_temp t l) !loads;
          copies := Copyprop.forget t !copies
        end
      in
      let instrs =
        List.map
          (fun i ->
            let i =
              if !copies = [] then i else Ir.map_instr_uses (Copyprop.subst changed !copies) i
            in
            let key = key_of i and read = Ir.loc_read i and def = Ir.instr_def i in
            let hit =
              match (key, read, def) with
              | Some k, _, Some d -> (
                  match find same_key k !avail with Some s when s <> d -> Some s | _ -> None)
              | None, Some l, Some d -> (
                  match (find same_loc l !loads, l) with
                  | Some s, _ when s = d -> None
                  (* A load may be given the value stored to its slot,
                     which need not have the load's kind. *)
                  | Some s, Ir.Lslot _ when Ir.temp_kind f s <> Ir.temp_kind f d -> None
                  | hit, _ -> hit)
              | _ -> None
            in
            (* Kill invalidated entries, then record the new value. *)
            if !loads <> [] && Ir.writes i then
              loads := drop (fun l _ -> Ir.may_write prog f i l) !loads;
            Option.iter on_def def;
            match (hit, def) with
            | Some s, Some d ->
                changed := true;
                copies := (d, Ir.Otemp s) :: !copies;
                named.(d) <- true;
                named.(s) <- true;
                Ir.Mov (d, Ir.Otemp s)
            | _ ->
                (match (i, key, read, def) with
                | Ir.Mov _, _, _, _ -> ()
                | _, Some k, _, Some d -> avail := add_key !avail k d
                | _, _, Some l, Some d -> loads := add_load !loads l d
                | _ -> ());
                (* A store to a slot makes the stored temp the slot's
                   value for later loads. *)
                (match i with
                | Ir.St_local (l, o, Ir.Otemp t) -> loads := add_load !loads (Ir.Lslot (l, o)) t
                | _ -> ());
                i)
          blk.Ir.instrs
      in
      blk.Ir.instrs <- instrs;
      if !copies <> [] then
        blk.Ir.term <- Ir.map_term_uses (Copyprop.subst changed !copies) blk.Ir.term;
      { avail = !avail; loads = !loads; copies = !copies });
  !changed
