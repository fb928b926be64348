(** Ambiguous derivations via hoisted base selection (paper §4, "Ambiguous
    Derivations"), cured with {e path variables}.

    Recognized shape: a loop body contains a two-armed diamond on a
    loop-invariant condition, whose arms are instruction-for-instruction
    identical up to temp naming {e except} that each arm loads a different
    pointer slot as the base of an element address:

    {v
      FOR i := … DO
        IF inv THEN … P[i] … ELSE … Q[i] … END
      END
    v}

    The transformation hoists the selection out of the loop — evaluating the
    condition once in the preheader, computing the selected array's virtual
    element origin [sel := base + d − lo·esz] there — and merges the arms
    into one copy indexing off [sel]. Because [sel]'s derivation now depends
    on which path executed, a {e path variable} is stored alongside it
    (1 or 2), and [sel]'s slot is marked [Sambig]: the collector picks the
    derivation table variant by reading the path variable at run time. The
    alternative (path splitting, Fig. 2) duplicates the loop instead; we
    implement the path-variable scheme like the paper. *)

module Ir = Mir.Ir
module Iset = Support.Ints.Iset

(* Structural equality of two instructions under a temp bijection built on
   the fly. Returns false on mismatch; accumulates pairs in [bij]. *)
let match_operand bij (a : Ir.operand) (b : Ir.operand) =
  match (a, b) with
  | Ir.Oimm x, Ir.Oimm y -> x = y
  | Ir.Otemp x, Ir.Otemp y -> (
      match Hashtbl.find_opt bij x with
      | Some y' -> y = y'
      | None ->
          Hashtbl.replace bij x y;
          true)
  | _ -> false

let match_def bij a b =
  match Hashtbl.find_opt bij a with
  | Some b' -> b = b'
  | None ->
      Hashtbl.replace bij a b;
      true

(* Compare two instructions; [`Equal] under the bijection, or
   [`Differing_load (ta, va, tb, vb)] for the single permitted difference:
   loads of different slots. *)
let match_instr bij (ia : Ir.instr) (ib : Ir.instr) =
  match (ia, ib) with
  | Ir.Ld_local (ta, va, 0), Ir.Ld_local (tb, vb, 0) when va <> vb ->
      if match_def bij ta tb then `Differing_load (ta, va, tb, vb) else `Mismatch
  | Ir.Mov (da, sa), Ir.Mov (db, sb) ->
      if match_operand bij sa sb && match_def bij da db then `Equal else `Mismatch
  | Ir.Bin (opa, da, xa, ya), Ir.Bin (opb, db, xb, yb) ->
      if
        opa = opb && match_operand bij xa xb && match_operand bij ya yb
        && match_def bij da db
      then `Equal
      else `Mismatch
  | Ir.Neg (da, sa), Ir.Neg (db, sb) | Ir.Abs (da, sa), Ir.Abs (db, sb) ->
      if match_operand bij sa sb && match_def bij da db then `Equal else `Mismatch
  | Ir.Setrel (ra, da, xa, ya), Ir.Setrel (rb, db, xb, yb) ->
      if
        ra = rb && match_operand bij xa xb && match_operand bij ya yb
        && match_def bij da db
      then `Equal
      else `Mismatch
  | Ir.Ld_local (da, la, oa), Ir.Ld_local (db, lb, ob) ->
      if la = lb && oa = ob && match_def bij da db then `Equal else `Mismatch
  | Ir.St_local (la, oa, sa), Ir.St_local (lb, ob, sb) ->
      if la = lb && oa = ob && match_operand bij sa sb then `Equal else `Mismatch
  | Ir.Ld_global (da, ga, oa), Ir.Ld_global (db, gb, ob) ->
      if ga = gb && oa = ob && match_def bij da db then `Equal else `Mismatch
  | Ir.St_global (ga, oa, sa), Ir.St_global (gb, ob, sb) ->
      if ga = gb && oa = ob && match_operand bij sa sb then `Equal else `Mismatch
  | Ir.Load (da, aa, oa), Ir.Load (db, ab, ob) ->
      if oa = ob && match_operand bij aa ab && match_def bij da db then `Equal
      else `Mismatch
  | Ir.Store (aa, oa, va), Ir.Store (ab, ob, vb)
  | Ir.Store_nb (aa, oa, va), Ir.Store_nb (ab, ob, vb) ->
      if oa = ob && match_operand bij aa ab && match_operand bij va vb then `Equal
      else `Mismatch
  | _ -> `Mismatch

type candidate = {
  cond_block : int;
  arm_a : int;
  arm_b : int;
  join : int;
  va : int; (* pointer slot selected on path 1 *)
  vb : int; (* pointer slot selected on path 2 *)
  ta : int; (* arm A's base temp (bijection representative) *)
}

let find_candidate (prog : Ir.program) (f : Ir.func) (l : Mir.Cfg.loop) : candidate option =
  let body = l.Mir.Cfg.body in
  let found = ref None in
  Iset.iter
    (fun cb ->
      if !found = None then
        match f.Ir.blocks.(cb).Ir.term with
        | Ir.Cjmp (_, _, _, a, b)
          when a <> b && Iset.mem a body && Iset.mem b body -> (
            let ba = f.Ir.blocks.(a) and bb = f.Ir.blocks.(b) in
            match (ba.Ir.term, bb.Ir.term) with
            | Ir.Jmp ja, Ir.Jmp jb
              when ja = jb
                   && List.length ba.Ir.instrs = List.length bb.Ir.instrs -> (
                let bij = Hashtbl.create 16 in
                let diff = ref None in
                let ok =
                  List.for_all2
                    (fun ia ib ->
                      match match_instr bij ia ib with
                      | `Equal -> true
                      | `Mismatch -> false
                      | `Differing_load (ta, va, tb, vb) -> (
                          ignore tb;
                          match !diff with
                          | None ->
                              diff := Some (ta, va, vb);
                              true
                          | Some _ -> false (* at most one difference *)))
                    ba.Ir.instrs bb.Ir.instrs
                in
                match (ok, !diff) with
                | true, Some (ta, va, vb) ->
                    (* Both slots must be tidy-pointer slots the loop
                       never writes. *)
                    let slot_ok v =
                      f.Ir.locals.(v).Ir.l_slot = Ir.Sptr
                      && Mir.Cfg.unwritten prog f l (Ir.Lslot (v, 0))
                    in
                    if slot_ok va && slot_ok vb then
                      found := Some { cond_block = cb; arm_a = a; arm_b = b; join = ja; va; vb; ta }
                | _ -> ())
            | _ -> ())
        | _ -> ())
    body;
  !found

(* The condition instructions at the tail of the cond block that feed the
   Cjmp: we replicate them in the preheader. They must be invariant:
   loads of slots the loop never writes, and pure arithmetic. *)
let extract_condition (prog : Ir.program) (f : Ir.func) (l : Mir.Cfg.loop) (cb : int) :
    (Ir.instr list * Ir.relop * Ir.operand * Ir.operand) option =
  match f.Ir.blocks.(cb).Ir.term with
  | Ir.Cjmp (r, x, y, _, _) ->
      (* Walk backward collecting the defs of the condition operands. *)
      let instrs = Array.of_list f.Ir.blocks.(cb).Ir.instrs in
      let wanted = Hashtbl.create 4 in
      let note (o : Ir.operand) =
        match o with Ir.Otemp t -> Hashtbl.replace wanted t () | Ir.Oimm _ -> ()
      in
      note x;
      note y;
      let picked = ref [] in
      let ok = ref true in
      for i = Array.length instrs - 1 downto 0 do
        match Ir.instr_def instrs.(i) with
        | Some d when Hashtbl.mem wanted d ->
            Hashtbl.remove wanted d;
            (match instrs.(i) with
            | Ir.Ld_local (_, lo, o) when Mir.Cfg.unwritten prog f l (Ir.Lslot (lo, o)) ->
                List.iter note (Ir.instr_uses instrs.(i))
            | Ir.Mov _ | Ir.Bin _ | Ir.Neg _ | Ir.Abs _ | Ir.Setrel _ ->
                List.iter note (Ir.instr_uses instrs.(i))
            | _ -> ok := false);
            picked := instrs.(i) :: !picked
        | _ -> ()
      done;
      if !ok && Hashtbl.length wanted = 0 then Some (!picked, r, x, y) else None
  | _ -> None

(* Recompute derived kinds of arm instructions after the base substitution:
   walk in order, assigning each def a kind from its operands. *)
let refresh_kinds (f : Ir.func) (instrs : Ir.instr list) =
  let kind_of (o : Ir.operand) =
    match o with Ir.Oimm _ -> Ir.Kscalar | Ir.Otemp t -> Ir.temp_kind f t
  in
  List.iter
    (fun i ->
      match i with
      | Ir.Bin (op, d, a, b) when op = Ir.Add || op = Ir.Sub -> (
          match (kind_of a, kind_of b) with
          | (Ir.Kptr | Ir.Kderived _), _ | _, (Ir.Kptr | Ir.Kderived _) ->
              let da = Ir.deriv_of f a and db = Ir.deriv_of f b in
              let dd = if op = Ir.Add then Mir.Deriv.add da db else Mir.Deriv.sub da db in
              Ir.set_temp_kind f d
                (if Mir.Deriv.is_empty dd then Ir.Kscalar else Ir.Kderived dd)
          | (Ir.Kstack, _ | _, Ir.Kstack) -> Ir.set_temp_kind f d Ir.Kstack
          | _ -> ())
      | _ -> ())
    instrs

let apply (prog : Ir.program) (f : Ir.func) (l : Mir.Cfg.loop) (c : candidate) : bool =
  match extract_condition prog f l c.cond_block with
  | None -> false
  | Some (cond_instrs, rel, x, y) ->
      (* Locate arm A's address chain: ta feeds  taddr := add ta, off ;
         tx := load(taddr, d).  We fold [d - lo*esz] into the selected
         origin, so we need the Sub-by-lo (if any), the Mul-by-esz (if
         any), and the Load displacement. *)
      let arm = f.Ir.blocks.(c.arm_a) in
      let instrs = Array.of_list arm.Ir.instrs in
      let n = Array.length instrs in
      let find_def t =
        let r = ref None in
        for i = 0 to n - 1 do
          if Ir.instr_def instrs.(i) = Some t then r := Some i
        done;
        !r
      in
      let single_use t =
        let c = ref 0 in
        Array.iter
          (fun i ->
            List.iter
              (function Ir.Otemp u when u = t -> incr c | _ -> ())
              (Ir.instr_uses i))
          instrs;
        !c = 1
      in
      (* taddr := add ta, off  (ta single use in arm) *)
      let addr_site = ref None in
      for i = 0 to n - 1 do
        match instrs.(i) with
        | Ir.Bin (Ir.Add, taddr, Ir.Otemp b, off) when b = c.ta ->
            addr_site := Some (i, taddr, off)
        | Ir.Bin (Ir.Add, taddr, off, Ir.Otemp b) when b = c.ta ->
            addr_site := Some (i, taddr, off)
        | _ -> ()
      done;
      (match !addr_site with
      | None -> false
      | Some (addr_i, taddr, off) -> (
          if not (single_use c.ta && single_use taddr) then false
          else
            (* Find the load through taddr and the offset chain. *)
            let load_site = ref None in
            for i = 0 to n - 1 do
              match instrs.(i) with
              | Ir.Load (tx, Ir.Otemp a, d) when a = taddr -> load_site := Some (i, tx, d)
              | _ -> ()
            done;
            match !load_site with
            | None -> false
            | Some (load_i, _tx, disp) ->
                (* Decompose off = (i' - lo) * esz within the arm. The
                   multiplication stays (the element scaling is still
                   needed); only the lo-subtraction is cancelled, its value
                   being folded into the selected origin. *)
                let lo = ref 0 and esz = ref 1 in
                let kill = ref [] (* instruction indices to neutralize *) in
                let index_op = ref off in
                (match off with
                | Ir.Otemp t -> (
                    match find_def t with
                    | Some i -> (
                        match instrs.(i) with
                        | Ir.Bin (Ir.Mul, _, a, Ir.Oimm k) when single_use t ->
                            esz := k;
                            index_op := a
                        | _ -> ())
                    | None -> ())
                | Ir.Oimm _ -> ());
                (match !index_op with
                | Ir.Otemp t -> (
                    match find_def t with
                    | Some i -> (
                        match instrs.(i) with
                        | Ir.Bin (Ir.Sub, _, a, Ir.Oimm k) when single_use t ->
                            lo := k;
                            kill := i :: !kill;
                            index_op := a
                        | _ -> ())
                    | None -> ())
                | Ir.Oimm _ -> ());
                (* New locals: the selected origin and the path variable. *)
                let mk_local name slot =
                  let id = Array.length f.Ir.locals in
                  f.Ir.locals <-
                    Array.append f.Ir.locals
                      [|
                        {
                          Ir.l_name = name;
                          l_size = 1;
                          l_slot = slot;
                          l_user = false;
                          l_addr_taken = false;
                          l_stores = 2;
                        };
                      |];
                  id
                in
                let pv = mk_local "$path" Ir.Sscalar in
                let k = disp - (!lo * !esz) in
                let sel =
                  mk_local "$sel"
                    (Ir.Sambig
                       {
                         Ir.path_local = pv;
                         cases =
                           [
                             (1, Mir.Deriv.of_base (Mir.Deriv.Blocal c.va));
                             (2, Mir.Deriv.of_base (Mir.Deriv.Blocal c.vb));
                           ];
                       })
                in
                (* Preheader with the hoisted selection. *)
                let ph = Mir.Cfg.insert_preheader f l in
                let pa = Mir.Cfg.add_block f ~instrs:[] ~term:(Ir.Jmp l.Mir.Cfg.header) in
                let pb = Mir.Cfg.add_block f ~instrs:[] ~term:(Ir.Jmp l.Mir.Cfg.header) in
                let phb = f.Ir.blocks.(ph) in
                phb.Ir.instrs <- cond_instrs;
                phb.Ir.term <- Ir.Cjmp (rel, x, y, pa, pb);
                let fill_arm blk_lbl v path_value =
                  let tb = Ir.fresh_temp f Ir.Kptr in
                  let ts = Ir.fresh_temp f (Ir.Kderived (Mir.Deriv.of_base (Mir.Deriv.Blocal v))) in
                  let blk = f.Ir.blocks.(blk_lbl) in
                  blk.Ir.instrs <-
                    [
                      Ir.Ld_local (tb, v, 0);
                      Ir.Bin (Ir.Add, ts, Ir.Otemp tb, Ir.Oimm k);
                      Ir.St_local (sel, 0, Ir.Otemp ts);
                      Ir.St_local (pv, 0, Ir.Oimm path_value);
                    ]
                in
                fill_arm pa c.va 1;
                fill_arm pb c.vb 2;
                (* Rewrite arm A into the merged body: base load comes from
                   sel; the lo-subtraction is cancelled; the load uses
                   displacement 0. *)
                let merged =
                  Array.to_list
                    (Array.mapi
                       (fun i ins ->
                         if i = addr_i then Ir.Bin (Ir.Add, taddr, Ir.Otemp c.ta, off)
                         else if i = load_i then
                           match ins with
                           | Ir.Load (tx, a, _) -> Ir.Load (tx, a, 0)
                           | other -> other
                         else if List.mem i !kill then
                           match ins with
                           | Ir.Bin (_, d, a, _) -> Ir.Mov (d, a)
                           | other -> other
                         else
                           match ins with
                           | Ir.Ld_local (t, v, 0) when t = c.ta && v = c.va ->
                               Ir.Ld_local (t, sel, 0)
                           | other -> other)
                       instrs)
                in
                arm.Ir.instrs <- merged;
                (* ta now carries the ambiguous origin. *)
                Ir.set_temp_kind f c.ta
                  (Ir.Kderived (Mir.Deriv.of_base (Mir.Deriv.Blocal sel)));
                refresh_kinds f merged;
                (* The conditional inside the loop is gone: both paths take
                   the merged arm. *)
                f.Ir.blocks.(c.cond_block).Ir.term <- Ir.Jmp c.arm_a;
                true))

let run (prog : Ir.program) (cfg : Mir.Cfg.analysis) (f : Ir.func) : bool =
  Mir.Cfg.visit_loops cfg f (fun l ->
      match find_candidate prog f l with Some c -> apply prog f l c | None -> false)
