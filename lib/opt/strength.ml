(** Strength reduction of array addressing in counted loops — the paper's
    first optimization example (§2): an indexing loop becomes a pointer
    marching through the array. The marching pointer is a {e derived value}
    that is live at every gc-point in the loop, which is exactly what the
    derivation tables must describe.

    Recognized shape (produced by lowering, possibly after CSE/LICM):
    - an induction local [iv] whose only write in the loop is
      [iv := load(iv) + step];
    - an address [taddr := base + off] where [base] is loop-invariant (an
      invariant temp, or a fresh load of a slot never written in the loop)
      and [off] is [(load(iv) − lo) · esz] (with the [−lo] and [·esz] parts
      optional).

    The rewrite materializes a new frame slot [pl] holding
    [base + (iv − lo)·esz], initialized in the preheader and incremented by
    [step·esz] right after [iv]'s own increment; the address computation
    becomes a load of [pl]. [pl] is recorded as a derived slot whose base is
    the array pointer, so every gc-point in the loop gets a derivation
    table entry for it. *)

module Ir = Mir.Ir
module Iset = Support.Ints.Iset

type defsite = { db : int (* block *); instr : Ir.instr }

let build_defs (f : Ir.func) =
  let defs = Hashtbl.create 64 in
  let count = Array.make f.Ir.ntemps 0 in
  Array.iteri
    (fun b (blk : Ir.block) ->
      List.iter
        (fun i ->
          match Ir.instr_def i with
          | Some d ->
              count.(d) <- count.(d) + 1;
              Hashtbl.replace defs d { db = b; instr = i }
          | None -> ())
        blk.Ir.instrs)
    f.Ir.blocks;
  (defs, count)

(* Decompose an offset operand into (iv, lo, esz): off = (load iv - lo) * esz. *)
let decompose_offset (defs, count) ~in_body (off : Ir.operand) : (int * int * int) option =
  let single_def t = count.(t) = 1 in
  let def t = Hashtbl.find_opt defs t in
  let iv_load (o : Ir.operand) =
    match o with
    | Ir.Otemp t when single_def t -> (
        match def t with
        | Some { db; instr = Ir.Ld_local (_, iv, 0) } when in_body db -> Some iv
        | _ -> None)
    | _ -> None
  in
  let sub_lo (o : Ir.operand) =
    (* o = load(iv) - lo  |  load(iv) *)
    match o with
    | Ir.Otemp t when single_def t -> (
        match def t with
        | Some { db; instr = Ir.Bin (Ir.Sub, _, a, Ir.Oimm lo) } when in_body db -> (
            match iv_load a with Some iv -> Some (iv, lo) | None -> None)
        | _ -> (
            match iv_load o with Some iv -> Some (iv, 0) | None -> None))
    | _ -> None
  in
  match off with
  | Ir.Otemp t when single_def t -> (
      match def t with
      | Some { db; instr = Ir.Bin (Ir.Mul, _, a, Ir.Oimm esz) } when in_body db -> (
          match sub_lo a with Some (iv, lo) -> Some (iv, lo, esz) | None -> None)
      | _ -> (
          match sub_lo off with Some (iv, lo) -> Some (iv, lo, 1) | None -> None))
  | _ -> None

let reduce_loop (prog : Ir.program) (cfg : Mir.Cfg.analysis) (f : Ir.func) (l : Mir.Cfg.loop) :
    bool =
  let body = l.Mir.Cfg.body in
  let in_body b = Iset.mem b body in
  let defs, count = build_defs f in
  let writers = Mir.Cfg.writers prog f l in
  (* Induction variables: iv := load(iv) + step, the only write of iv in
     the loop. *)
  let induction iv =
    match writers (Ir.Lslot (iv, 0)) with
    | [ (sb, Ir.St_local (_, _, Ir.Otemp tn)) ] when count.(tn) = 1 -> (
        match Hashtbl.find_opt defs tn with
        | Some { db; instr = Ir.Bin (Ir.Add, _, Ir.Otemp tc, Ir.Oimm step) }
          when in_body db && count.(tc) = 1 -> (
            match Hashtbl.find_opt defs tc with
            | Some { db = db2; instr = Ir.Ld_local (_, iv', 0) }
              when in_body db2 && iv' = iv ->
                Some (sb, step)
            | _ -> None)
        | _ -> None)
    | _ -> None
  in
  (* Is [base] loop-invariant?  Either a temp whose single definition is
     outside the loop and dominates the header (usable directly in the
     preheader), or a single in-loop load of a slot nothing in the loop
     may write (re-loaded fresh in the preheader). *)
  let idom = Mir.Cfg.idom cfg f in
  let base_info (o : Ir.operand) : (Mir.Deriv.t * [ `Temp of int | `Slot of int ]) option =
    match o with
    | Ir.Oimm _ -> None
    | Ir.Otemp t -> (
        if not (Ir.is_pointer f o) then None
        else if count.(t) = 1 then
          match Hashtbl.find_opt defs t with
          | Some { db; instr = Ir.Ld_local (_, bslot, 0) }
            when in_body db
                 && writers (Ir.Lslot (bslot, 0)) = []
                 && (match f.Ir.locals.(bslot).Ir.l_slot with
                    | Ir.Sambig _ -> false
                    | _ -> true) ->
              Some (Mir.Deriv.of_base (Mir.Deriv.Blocal bslot), `Slot bslot)
          | Some { db; _ }
            when (not (in_body db)) && Mir.Cfg.dominates idom db l.Mir.Cfg.header ->
              Some (Mir.Deriv.of_base (Mir.Deriv.Btemp t), `Temp t)
          | _ -> None
        else None)
  in
  (* Collect candidates: (block, taddr, base op, iv, lo, esz). *)
  let candidates = ref [] in
  Iset.iter
    (fun b ->
      List.iter
        (fun i ->
          match i with
          | Ir.Bin (Ir.Add, taddr, base, off) -> (
              match Ir.temp_kind f taddr with
              | Ir.Kderived _ -> (
                  match decompose_offset (defs, count) ~in_body off with
                  | Some (iv, lo, esz) -> (
                      match (induction iv, base_info base) with
                      | Some (sb, step), Some (bd, bsrc) ->
                          candidates :=
                            (b, taddr, base, bd, bsrc, iv, lo, esz, sb, step) :: !candidates
                      | _ -> ())
                  | None -> ())
              | Ir.Kscalar | Ir.Kptr | Ir.Kstack -> ())
          | _ -> ())
        f.Ir.blocks.(b).Ir.instrs)
    body;
  if !candidates = [] then false
  else begin
    let preheader = Mir.Cfg.insert_preheader f l in
    (* One reduced pointer per (base, iv, lo, esz) group. *)
    let groups = Hashtbl.create 4 in
    List.iter
      (fun (b, taddr, base, bd, bsrc, iv, lo, esz, sb, step) ->
        let key = (base, iv, lo, esz) in
        let pl =
          match Hashtbl.find_opt groups key with
          | Some pl -> pl
          | None ->
              let pl = Array.length f.Ir.locals in
              f.Ir.locals <-
                Array.append f.Ir.locals
                  [|
                    {
                      Ir.l_name = Printf.sprintf "$sr%d" pl;
                      l_size = 1;
                      l_slot = Ir.Sderived bd;
                      l_user = false;
                      l_addr_taken = false;
                      l_stores = 2;
                    };
                  |];
              (* Preheader initialization: pl := base + (load(iv) - lo)*esz.
                 A slot-based base is re-loaded fresh (its defining load
                 lives inside the loop and cannot be referenced here). *)
              let ph = f.Ir.blocks.(preheader) in
              let ti = Ir.fresh_temp f Ir.Kscalar in
              let t1 = Ir.fresh_temp f Ir.Kscalar in
              let t2 = Ir.fresh_temp f Ir.Kscalar in
              let p0 = Ir.fresh_temp f (Ir.Kderived bd) in
              let base_load, base_op =
                match bsrc with
                | `Temp t -> ([], Ir.Otemp t)
                | `Slot bslot ->
                    let tb = Ir.fresh_temp f Ir.Kptr in
                    ([ Ir.Ld_local (tb, bslot, 0) ], Ir.Otemp tb)
              in
              let init =
                base_load
                @ [ Ir.Ld_local (ti, iv, 0) ]
                @ (if lo <> 0 then [ Ir.Bin (Ir.Sub, t1, Ir.Otemp ti, Ir.Oimm lo) ]
                   else [ Ir.Mov (t1, Ir.Otemp ti) ])
                @ (if esz <> 1 then [ Ir.Bin (Ir.Mul, t2, Ir.Otemp t1, Ir.Oimm esz) ]
                   else [ Ir.Mov (t2, Ir.Otemp t1) ])
                @ [
                    Ir.Bin (Ir.Add, p0, base_op, Ir.Otemp t2);
                    Ir.St_local (pl, 0, Ir.Otemp p0);
                  ]
              in
              ph.Ir.instrs <- ph.Ir.instrs @ init;
              (* Increment right after iv's store. *)
              let sblk = f.Ir.blocks.(sb) in
              let tp = Ir.fresh_temp f (Ir.Kderived (Mir.Deriv.of_base (Mir.Deriv.Blocal pl))) in
              let tp2 = Ir.fresh_temp f (Ir.Kderived (Mir.Deriv.of_base (Mir.Deriv.Blocal pl))) in
              let rec insert = function
                | [] -> []
                | (Ir.St_local (lo', 0, _) as s) :: rest when lo' = iv ->
                    s
                    :: Ir.Ld_local (tp, pl, 0)
                    :: Ir.Bin (Ir.Add, tp2, Ir.Otemp tp, Ir.Oimm (step * esz))
                    :: Ir.St_local (pl, 0, Ir.Otemp tp2)
                    :: rest
                | x :: rest -> x :: insert rest
              in
              sblk.Ir.instrs <- insert sblk.Ir.instrs;
              Hashtbl.replace groups key pl;
              pl
        in
        (* Replace the address computation with a load of pl. *)
        let blk = f.Ir.blocks.(b) in
        blk.Ir.instrs <-
          List.map
            (fun i ->
              match i with
              | Ir.Bin (Ir.Add, t, base', off') when t = taddr && base' = base ->
                  ignore off';
                  Ir.set_temp_kind f taddr
                    (Ir.Kderived (Mir.Deriv.of_base (Mir.Deriv.Blocal pl)));
                  Ir.Ld_local (taddr, pl, 0)
              | other -> other)
            blk.Ir.instrs)
      !candidates;
    true
  end

let run (prog : Ir.program) (cfg : Mir.Cfg.analysis) (f : Ir.func) : bool =
  Mir.Cfg.visit_loops cfg f (reduce_loop prog cfg f)
