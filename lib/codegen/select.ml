open Support
module Ir = Mir.Ir
module I = Machine.Insn
module L = Gcmaps.Loc
module RM = Gcmaps.Rawmaps

type options = { gc_restrict : bool; noalloc : int -> bool }

let default_options = { gc_restrict = true; noalloc = (fun _ -> false) }

type raw_gcpoint = {
  rg_item : int;
  rg_stack_ptrs : L.t list;
  rg_reg_ptrs : int list;
  rg_derivs : RM.deriv_entry list;
  rg_variants : RM.variant list;
}

type out_func = {
  of_fid : int;
  of_name : string;
  of_code : I.t array;
  of_frame : Frame.t;
  of_gcpoints : raw_gcpoint list;
  of_folds_suppressed : int;
  of_folds_applied : int;
  of_barriers : int; (* generational write barriers emitted *)
  of_barriers_elided : int; (* pointer stores compiled barrier-free (Barrier_elim) *)
}

(* ------------------------------------------------------------------ *)
(* Analysis helpers                                                    *)
(* ------------------------------------------------------------------ *)

(* Temps that serve as derivation bases (of temps or derived slots). *)
let base_temps (f : Ir.func) =
  let is_base = Array.make f.Ir.ntemps false in
  let mark (d : Mir.Deriv.t) =
    List.iter
      (function Mir.Deriv.Btemp t -> is_base.(t) <- true | Mir.Deriv.Blocal _ -> ())
      (Mir.Deriv.bases d)
  in
  Array.iteri (fun _ k -> match k with Ir.Kderived d -> mark d | _ -> ()) f.Ir.temp_kinds;
  Array.iter
    (fun (li : Ir.local_info) ->
      match li.Ir.l_slot with Ir.Sderived d -> mark d | _ -> ())
    f.Ir.locals;
  is_base

(* ------------------------------------------------------------------ *)
(* Selection                                                           *)
(* ------------------------------------------------------------------ *)

type st = {
  f : Ir.func;
  opts : options;
  liv : Mir.Liveness.t;
  ra : Regalloc.t;
  fr : Frame.t;
  counts : int array;
  is_base : bool array;
  items : I.t Growarr.t;
  block_pos : int array; (* label -> item index of block start *)
  mutable gcpoints : raw_gcpoint list;
  mutable folds_suppressed : int;
  mutable folds_applied : int;
  mutable barriers : int;
  mutable barriers_elided : int;
  global_addr : int -> int; (* global index -> absolute word address *)
  text_addr : int -> int;
}

let emit st i = ignore (Growarr.push st.items i)

(* Operand for a temp that must already hold a value; spilled temps are
   reloaded into a scratch register. *)
let temp_src st ?(scratch = Machine.Reg.scratch0) t : I.operand =
  match st.ra.Regalloc.assign.(t) with
  | Regalloc.Areg r -> I.Reg r
  | Regalloc.Aspill s ->
      emit st (I.Mov (I.Reg scratch, I.Mem (Machine.Reg.fp, Frame.spill_off st.fr s)));
      I.Reg scratch

let operand_src st ?scratch (o : Ir.operand) : I.operand =
  match o with Ir.Oimm n -> I.Imm n | Ir.Otemp t -> temp_src st ?scratch t

(* Destination handling: returns the operand to write and a completion
   thunk that stores a spilled destination back to its slot. *)
let temp_dst st t : I.operand * (unit -> unit) =
  match st.ra.Regalloc.assign.(t) with
  | Regalloc.Areg r -> (I.Reg r, fun () -> ())
  | Regalloc.Aspill s ->
      ( I.Reg Machine.Reg.scratch0,
        fun () ->
          emit st
            (I.Mov (I.Mem (Machine.Reg.fp, Frame.spill_off st.fr s), I.Reg Machine.Reg.scratch0)) )

let local_mem st l o = I.Mem (Machine.Reg.fp, Frame.local_off st.fr l + o)

(* ------------------------------------------------------------------ *)
(* GC info at a call                                                   *)
(* ------------------------------------------------------------------ *)

let loc_of_temp st t = Regalloc.loc_of_temp st.ra st.fr t

let loc_of_base st (b : Mir.Deriv.base) : L.t option =
  match b with
  | Mir.Deriv.Blocal l -> Some (L.Lmem (L.FP, Frame.local_off st.fr l))
  | Mir.Deriv.Btemp t -> (
      match st.ra.Regalloc.assign.(t) with
      | Regalloc.Aspill s when s < 0 -> None (* folded away: unrestricted mode only *)
      | _ -> Some (loc_of_temp st t))

let deriv_entry_of st ~target (d : Mir.Deriv.t) : RM.deriv_entry option =
  let map bs = List.map (loc_of_base st) bs in
  let plus = map d.Mir.Deriv.plus and minus = map d.Mir.Deriv.minus in
  if List.exists Option.is_none plus || List.exists Option.is_none minus then None
  else
    Some
      {
        RM.target;
        plus = List.map Option.get plus;
        minus = List.map Option.get minus;
      }

let rec close_bases st (d : Mir.Deriv.t) (temps : Bitset.t) (locals : Bitset.t) =
  List.iter
    (fun b ->
      match b with
      | Mir.Deriv.Blocal l -> Bitset.set locals l
      | Mir.Deriv.Btemp t ->
          if not (Bitset.mem temps t) then begin
            Bitset.set temps t;
            match Ir.temp_kind st.f t with
            | Ir.Kderived d' -> close_bases st d' temps locals
            | Ir.Kscalar | Ir.Kptr | Ir.Kstack -> ()
          end)
    (Mir.Deriv.bases d)

let record_gcpoint st ~block ~instr_idx ~(args : Ir.operand list) ~call_item =
  let live_t, live_l = Mir.Liveness.live_at_gcpoint st.liv block instr_idx in
  (* The bases of derivations passed as outgoing arguments live through the
     call (dead-base rule at call-by-reference, paper §3-4). *)
  List.iter
    (function
      | Ir.Oimm _ -> ()
      | Ir.Otemp a -> (
          match Ir.temp_kind st.f a with
          | Ir.Kderived d -> close_bases st d live_t live_l
          | Ir.Kscalar | Ir.Kptr | Ir.Kstack -> ()))
    args;
  let stack_ptrs = ref [] and reg_ptrs = ref [] and derivs = ref [] in
  let variants = ref [] in
  (* Frame locals (never incoming parameters: those are described by the
     caller's tables for the whole duration of the call). *)
  Bitset.iter
    (fun l ->
      if l >= st.f.Ir.nparams then
        let info = st.f.Ir.locals.(l) in
        let off = Frame.local_off st.fr l in
        match info.Ir.l_slot with
        | Ir.Sptr -> stack_ptrs := L.Lmem (L.FP, off) :: !stack_ptrs
        | Ir.Saggregate ptrs ->
            List.iter (fun p -> stack_ptrs := L.Lmem (L.FP, off + p) :: !stack_ptrs) ptrs
        | Ir.Sderived d -> (
            match deriv_entry_of st ~target:(L.Lmem (L.FP, off)) d with
            | Some e -> derivs := e :: !derivs
            | None -> ())
        | Ir.Sambig a ->
            (* Ambiguous derivation: one variant per path value (§4). *)
            let path_loc = L.Lmem (L.FP, Frame.local_off st.fr a.Ir.path_local) in
            let cases =
              List.filter_map
                (fun (v, d) ->
                  match deriv_entry_of st ~target:(L.Lmem (L.FP, off)) d with
                  | Some e -> Some (v, e)
                  | None -> None)
                a.Ir.cases
            in
            if cases <> [] then variants := { RM.path_loc; cases } :: !variants
        | Ir.Sscalar | Ir.Saddr -> ())
    live_l;
  (* Live temps. *)
  Bitset.iter
    (fun t ->
      match (Ir.temp_kind st.f t, st.ra.Regalloc.assign.(t)) with
      | Ir.Kptr, Regalloc.Areg r -> reg_ptrs := r :: !reg_ptrs
      | Ir.Kptr, Regalloc.Aspill s when s >= 0 ->
          stack_ptrs := L.Lmem (L.FP, Frame.spill_off st.fr s) :: !stack_ptrs
      | Ir.Kderived d, a when (match a with Regalloc.Aspill s -> s >= 0 | _ -> true) -> (
          match deriv_entry_of st ~target:(loc_of_temp st t) d with
          | Some e -> derivs := e :: !derivs
          | None -> ())
      | (Ir.Kscalar | Ir.Kstack | Ir.Kptr | Ir.Kderived _), _ -> ())
    live_t;
  (* Outgoing argument words of this very call (AP-relative). *)
  List.iteri
    (fun j (a : Ir.operand) ->
      match a with
      | Ir.Oimm _ -> ()
      | Ir.Otemp t -> (
          match Ir.temp_kind st.f t with
          | Ir.Kptr -> stack_ptrs := L.Lmem (L.AP, j) :: !stack_ptrs
          | Ir.Kderived d -> (
              match deriv_entry_of st ~target:(L.Lmem (L.AP, j)) d with
              | Some e -> derivs := e :: !derivs
              | None -> ())
          | Ir.Kscalar | Ir.Kstack -> ()))
    args;
  let gp =
    {
      rg_item = call_item;
      rg_stack_ptrs = List.sort_uniq L.compare !stack_ptrs;
      rg_reg_ptrs = List.sort_uniq compare !reg_ptrs;
      rg_derivs = RM.order_derivs (List.rev !derivs);
      rg_variants = List.rev !variants;
    }
  in
  st.gcpoints <- gp :: st.gcpoints

(* ------------------------------------------------------------------ *)
(* Instruction translation                                             *)
(* ------------------------------------------------------------------ *)

(* Folding decision for the instruction pair (i, i+1); returns the folded
   instruction list, or None. Pattern 1:
     ta := local[l]  (address slot) ; t := M[ta + o]
   folds to  t := Defer(FP, off_l, o).  Pattern 2:
     t1 := M[ta + k1] ; t2 := t1 + k2
   folds to  t2 := lea Defer(ra, k1, k2). Both require the intermediate to
   be single-use; with gc restrictions the intermediate must additionally
   not be a derivation base (paper §4). *)
type wbar_action = Wb_emit | Wb_elided | Wb_none

type fold =
  | Fold_defer_load of Ir.temp * int * int * int (* dst, base local, d1, d2 *)
  | Fold_defer_lea of Ir.temp * Ir.temp * int * int (* dst, addr temp, d1, d2 *)
  | Fold_mem2_load of Ir.temp * Ir.temp * Ir.temp * int (* dst, r1, r2, disp *)
  | Fold_mem2_store of Ir.temp * Ir.temp * int * Ir.operand * wbar_action
    (* r1, r2, disp, value, barrier decision of the folded store *)

let try_fold st ~gc_restrict i1 i2 =
  let ok_intermediate t =
    st.counts.(t) = 1 && ((not gc_restrict) || not st.is_base.(t))
  in
  match (i1, i2) with
  | Ir.Ld_local (ta, l, 0), Ir.Load (t, Ir.Otemp ta', o)
    when ta = ta' && ok_intermediate ta
         && (match st.f.Ir.locals.(l).Ir.l_slot with
            | Ir.Saddr | Ir.Sderived _ | Ir.Sambig _ -> true
            | Ir.Sscalar | Ir.Sptr | Ir.Saggregate _ -> false) ->
      Some (Fold_defer_load (t, l, 0, o))
  (* address through an indirect reference (paper §4, "Indirect
     References"):  t1 := M[ra+k1] ; taddr := t1 + k2.  Folding hides the
     intermediate pointer t1 inside a deferred operand; with gc
     restrictions the fold is suppressed whenever t1 is a derivation base,
     keeping the base in a compile-time-known location. *)
  | Ir.Load (t1, Ir.Otemp ra, k1), Ir.Bin (Ir.Add, taddr, Ir.Otemp t1', Ir.Oimm k2)
    when t1 = t1' && ok_intermediate t1
         && (match Ir.temp_kind st.f t1 with Ir.Kptr -> true | _ -> false) ->
      Some (Fold_defer_lea (taddr, ra, k1, k2))
  (* double indexing (paper §2's fourth example): an address formed from
     two register values feeds a single adjacent access; the sum is folded
     into a two-index addressing mode, like [*(t1 + t2)] on the SPARC or
     VAX. The components stay as table-described values when live at
     gc-points; only the transient sum disappears, so this fold is legal
     in restricted mode as long as the sum is not itself a derivation
     base. *)
  | Ir.Bin (Ir.Add, t3, Ir.Otemp t1, Ir.Otemp t2), Ir.Load (x, Ir.Otemp t3', d)
    when t3 = t3' && ok_intermediate t3 ->
      Some (Fold_mem2_load (x, t1, t2, d))
  | ( Ir.Bin (Ir.Add, t3, Ir.Otemp t1, Ir.Otemp t2),
      (Ir.Store (Ir.Otemp t3', d, v) | Ir.Store_nb (Ir.Otemp t3', d, v)) )
    when t3 = t3' && ok_intermediate t3
         && (* both scratch registers may be needed for the two index
               reloads, so the stored value must not need a third *)
         (match v with
         | Ir.Oimm _ -> true
         | Ir.Otemp tv -> (
             match st.ra.Regalloc.assign.(tv) with
             | Regalloc.Areg _ -> true
             | Regalloc.Aspill _ -> false)) ->
      let wb =
        if not (Ir.store_needs_barrier st.f (Ir.Otemp t3') v) then Wb_none
        else match i2 with Ir.Store_nb _ -> Wb_elided | _ -> Wb_emit
      in
      Some (Fold_mem2_store (t1, t2, d, v, wb))
  | _ -> None

let select_instr st ~block ~instr_idx (instr : Ir.instr) : unit =
  match instr with
  | Ir.Mov (d, s) ->
      let src = operand_src st s in
      let dst, fin = temp_dst st d in
      emit st (I.Mov (dst, src));
      fin ()
  | Ir.Bin (op, d, a, b) ->
      let sa = operand_src st ~scratch:Machine.Reg.scratch0 a in
      let sb = operand_src st ~scratch:Machine.Reg.scratch1 b in
      let dst, fin = temp_dst st d in
      emit st (I.Arith (I.aop_of_ir op, dst, sa, sb));
      fin ()
  | Ir.Neg (d, s) ->
      let src = operand_src st s in
      let dst, fin = temp_dst st d in
      emit st (I.Arith (I.Neg, dst, src, I.Imm 0));
      fin ()
  | Ir.Abs (d, s) ->
      let src = operand_src st s in
      let dst, fin = temp_dst st d in
      emit st (I.Arith (I.Abso, dst, src, I.Imm 0));
      fin ()
  | Ir.Setrel (r, d, a, b) ->
      let sa = operand_src st ~scratch:Machine.Reg.scratch0 a in
      let sb = operand_src st ~scratch:Machine.Reg.scratch1 b in
      let dst, fin = temp_dst st d in
      emit st (I.Arith (I.Setcc (I.relop_of_ir r), dst, sa, sb));
      fin ()
  | Ir.Ld_local (d, l, o) ->
      let dst, fin = temp_dst st d in
      emit st (I.Mov (dst, local_mem st l o));
      fin ()
  | Ir.St_local (l, o, s) ->
      let src = operand_src st s in
      emit st (I.Mov (local_mem st l o, src))
  | Ir.Ld_global (d, g, o) ->
      let dst, fin = temp_dst st d in
      emit st (I.Mov (dst, I.Abs (st.global_addr g + o)));
      fin ()
  | Ir.St_global (g, o, s) ->
      let src = operand_src st s in
      emit st (I.Mov (I.Abs (st.global_addr g + o), src))
  | Ir.Lda_local (d, l, o) -> (
      match st.ra.Regalloc.assign.(d) with
      | Regalloc.Areg r -> emit st (I.Lea (r, local_mem st l o))
      | Regalloc.Aspill s ->
          emit st (I.Lea (Machine.Reg.scratch0, local_mem st l o));
          emit st
            (I.Mov (I.Mem (Machine.Reg.fp, Frame.spill_off st.fr s), I.Reg Machine.Reg.scratch0)))
  | Ir.Lda_global (d, g, o) ->
      let dst, fin = temp_dst st d in
      emit st (I.Mov (dst, I.Imm (st.global_addr g + o)));
      fin ()
  | Ir.Lda_text (d, x) ->
      let dst, fin = temp_dst st d in
      emit st (I.Mov (dst, I.Imm (st.text_addr x)));
      fin ()
  | Ir.Load (d, a, o) ->
      let sa = operand_src st a in
      let ra = (match sa with I.Reg r -> r | _ -> failwith "Select: load address not in register") in
      let dst, fin = temp_dst st d in
      emit st (I.Mov (dst, I.Mem (ra, o)));
      fin ()
  | Ir.Store (a, o, v) ->
      let sa = operand_src st ~scratch:Machine.Reg.scratch0 a in
      let ra = (match sa with I.Reg r -> r | _ -> failwith "Select: store address not in register") in
      let sv = operand_src st ~scratch:Machine.Reg.scratch1 v in
      emit st (I.Mov (I.Mem (ra, o), sv));
      if Ir.store_needs_barrier st.f a v then begin
        emit st (I.Wbar (I.Mem (ra, o)));
        st.barriers <- st.barriers + 1
      end
  | Ir.Store_nb (a, o, v) ->
      let sa = operand_src st ~scratch:Machine.Reg.scratch0 a in
      let ra = (match sa with I.Reg r -> r | _ -> failwith "Select: store address not in register") in
      let sv = operand_src st ~scratch:Machine.Reg.scratch1 v in
      emit st (I.Mov (I.Mem (ra, o), sv));
      if Ir.store_needs_barrier st.f a v then
        st.barriers_elided <- st.barriers_elided + 1
  | Ir.Call (dst, callee, args) ->
      (* Push arguments right to left so argument 0 lands lowest. *)
      List.iter
        (fun a -> emit st (I.Push (operand_src st a)))
        (List.rev args);
      let mcallee =
        match callee with Ir.Cuser fid -> I.Cproc fid | Ir.Crt rc -> I.Crt rc
      in
      let call_item = Growarr.push st.items (I.Call mcallee) in
      if Ir.call_is_gcpoint ~noalloc_funcs:st.opts.noalloc callee then
        record_gcpoint st ~block ~instr_idx ~args ~call_item;
      (match dst with
      | None -> ()
      | Some d ->
          let dop, fin = temp_dst st d in
          emit st (I.Mov (dop, I.Reg Machine.Reg.ret));
          fin ())

let select_term st ~next_block (t : Ir.term) : unit =
  match t with
  | Ir.Jmp l -> if l <> next_block then emit st (I.Jmp l)
  | Ir.Cjmp (r, a, b, tl, fl) ->
      let sa = operand_src st ~scratch:Machine.Reg.scratch0 a in
      let sb = operand_src st ~scratch:Machine.Reg.scratch1 b in
      if tl = next_block then
        (* invert: branch to fl when NOT r *)
        emit st (I.Cbr (I.relop_of_ir (Ir.negate_relop r), sa, sb, fl))
      else begin
        emit st (I.Cbr (I.relop_of_ir r, sa, sb, tl));
        if fl <> next_block then emit st (I.Jmp fl)
      end
  | Ir.Ret o ->
      (match o with
      | Some op ->
          let src = operand_src st op in
          emit st (I.Mov (I.Reg Machine.Reg.ret, src))
      | None -> ());
      emit st I.Leave;
      emit st (I.Ret st.f.Ir.nparams)
  | Ir.Unreachable -> emit st (I.Trap "unreachable")
  | Ir.Trap msg -> emit st (I.Trap msg)

(* ------------------------------------------------------------------ *)
(* Function driver                                                     *)
(* ------------------------------------------------------------------ *)

let func ~(prog : Ir.program) (opts : options)
    ?(global_addr = fun _ -> 0) ?(text_addr = fun _ -> 0) (f : Ir.func) : out_func =
  ignore prog;
  let liv = Mir.Liveness.compute f in
  let ra = Regalloc.allocate f liv in
  let fr =
    Frame.layout ~locals:f.Ir.locals ~nparams:f.Ir.nparams
      ~saves:ra.Regalloc.used_callee_saved ~nspills:ra.Regalloc.nspills
  in
  let st =
    {
      f;
      opts;
      liv;
      ra;
      fr;
      counts = Ir.use_counts f;
      is_base = base_temps f;
      items = Growarr.create ~dummy:(I.Trap "dummy");
      block_pos = Array.make (Array.length f.Ir.blocks) 0;
      gcpoints = [];
      folds_suppressed = 0;
      folds_applied = 0;
      barriers = 0;
      barriers_elided = 0;
      global_addr;
      text_addr;
    }
  in
  emit st
    (I.Enter
       {
         frame_size = fr.Frame.frame_size;
         saves = Array.of_list ra.Regalloc.used_callee_saved;
       });
  Array.iteri
    (fun b (blk : Ir.block) ->
      st.block_pos.(b) <- Growarr.length st.items;
      let instrs = Array.of_list blk.Ir.instrs in
      let n = Array.length instrs in
      let i = ref 0 in
      while !i < n do
        let folded =
          if !i + 1 < n then
            try_fold st ~gc_restrict:st.opts.gc_restrict instrs.(!i) instrs.(!i + 1)
          else None
        in
        (match folded with
        | Some (Fold_defer_load (t, l, d1, d2)) ->
            st.folds_applied <- st.folds_applied + 1;
            let dst, fin = temp_dst st t in
            emit st (I.Mov (dst, I.Defer (Machine.Reg.fp, Frame.local_off st.fr l + d1, d2)));
            fin ();
            i := !i + 2
        | Some (Fold_mem2_load (x, t1, t2, d)) ->
            st.folds_applied <- st.folds_applied + 1;
            let r1 =
              match temp_src st ~scratch:Machine.Reg.scratch0 t1 with
              | I.Reg r -> r
              | _ -> failwith "Select: mem2 base not in a register"
            in
            let r2 =
              match temp_src st ~scratch:Machine.Reg.scratch1 t2 with
              | I.Reg r -> r
              | _ -> failwith "Select: mem2 index not in a register"
            in
            let dst, fin = temp_dst st x in
            emit st (I.Mov (dst, I.Mem2 (r1, r2, d)));
            fin ();
            i := !i + 2
        | Some (Fold_mem2_store (t1, t2, d, v, wb)) ->
            st.folds_applied <- st.folds_applied + 1;
            let r1 =
              match temp_src st ~scratch:Machine.Reg.scratch0 t1 with
              | I.Reg r -> r
              | _ -> failwith "Select: mem2 base not in a register"
            in
            let r2 =
              match temp_src st ~scratch:Machine.Reg.scratch1 t2 with
              | I.Reg r -> r
              | _ -> failwith "Select: mem2 index not in a register"
            in
            let sv = operand_src st v in
            emit st (I.Mov (I.Mem2 (r1, r2, d), sv));
            (match wb with
            | Wb_emit ->
                emit st (I.Wbar (I.Mem2 (r1, r2, d)));
                st.barriers <- st.barriers + 1
            | Wb_elided -> st.barriers_elided <- st.barriers_elided + 1
            | Wb_none -> ());
            i := !i + 2
        | Some (Fold_defer_lea (taddr, ra, k1, k2)) ->
            st.folds_applied <- st.folds_applied + 1;
            let rsrc =
              match temp_src st ra with
              | I.Reg r -> r
              | _ -> failwith "Select: defer base not in a register"
            in
            (match st.ra.Regalloc.assign.(taddr) with
            | Regalloc.Areg r -> emit st (I.Lea (r, I.Defer (rsrc, k1, k2)))
            | Regalloc.Aspill sp ->
                emit st (I.Lea (Machine.Reg.scratch0, I.Defer (rsrc, k1, k2)));
                emit st
                  (I.Mov
                     ( I.Mem (Machine.Reg.fp, Frame.spill_off st.fr sp),
                       I.Reg Machine.Reg.scratch0 )));
            i := !i + 2
        | None ->
            (* Count folds blocked purely by gc restrictions (§6.2). *)
            (if st.opts.gc_restrict && !i + 1 < n then
               match try_fold st ~gc_restrict:false instrs.(!i) instrs.(!i + 1) with
               | Some _ -> st.folds_suppressed <- st.folds_suppressed + 1
               | None -> ());
            select_instr st ~block:b ~instr_idx:!i instrs.(!i);
            incr i)
      done;
      select_term st ~next_block:(b + 1) blk.Ir.term)
    f.Ir.blocks;
  (* Resolve branch targets from block labels to item indices. *)
  let code = Growarr.to_array st.items in
  let resolved =
    Array.map
      (function
        | I.Jmp l -> I.Jmp st.block_pos.(l)
        | I.Cbr (r, a, b, l) -> I.Cbr (r, a, b, st.block_pos.(l))
        | other -> other)
      code
  in
  {
    of_fid = f.Ir.fid;
    of_name = f.Ir.fname;
    of_code = resolved;
    of_frame = fr;
    of_gcpoints = List.rev st.gcpoints;
    of_folds_suppressed = st.folds_suppressed;
    of_folds_applied = st.folds_applied;
    of_barriers = st.barriers;
    of_barriers_elided = st.barriers_elided;
  }
