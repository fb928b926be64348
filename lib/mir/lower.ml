open Support
module T = M3l.Tast
module Ty = M3l.Types

(* ------------------------------------------------------------------ *)
(* Program-level builder                                               *)
(* ------------------------------------------------------------------ *)

type pb = {
  tdescs : Rt.Typedesc.table;
  texts : string Growarr.t;
  mutable text_ids : int Ints.Smap.t;
  globals : Ir.global_info array;
  global_ids : (int, int) Hashtbl.t; (* var_id -> global index *)
  nprocs : int; (* user procs; main gets fid = nprocs *)
  alloc_sites : Ir.alloc_site Growarr.t; (* one entry per lowered NEW *)
}

(* Register a static allocation site; the returned id is baked into the
   allocating call instruction. *)
let new_site pb ~proc ~(loc : M3l.Srcloc.t) ~tdesc ~is_open =
  let id = Growarr.length pb.alloc_sites in
  ignore
    (Growarr.push pb.alloc_sites
       {
         Ir.as_id = id;
         as_proc = proc;
         as_line = loc.M3l.Srcloc.line;
         as_col = loc.M3l.Srcloc.col;
         as_tdesc = tdesc;
         as_open = is_open;
       });
  id

let intern_text pb s =
  match Ints.Smap.find_opt s pb.text_ids with
  | Some id -> id
  | None ->
      let id = Growarr.push pb.texts s in
      pb.text_ids <- Ints.Smap.add s id pb.text_ids;
      id

(* ------------------------------------------------------------------ *)
(* Function-level builder                                              *)
(* ------------------------------------------------------------------ *)

type bb = { mutable rev_instrs : Ir.instr list; mutable bterm : Ir.term option }

type fb = {
  pb : pb;
  proc_name : string; (* for allocation-site attribution *)
  checks : bool;
  blocks : bb Growarr.t;
  mutable cur : int; (* current block label *)
  kinds : Ir.kind Growarr.t;
  locals : Ir.local_info Growarr.t;
  var_storage : (int, storage) Hashtbl.t;
  temp_origin : (int, Ir.local) Hashtbl.t; (* temp -> stable local it copies *)
  mutable nil_err : int option; (* shared error blocks *)
  mutable bounds_err : int option;
}

and storage = Lslot of Ir.local | Gslot of int

let new_block fb =
  Growarr.push fb.blocks { rev_instrs = []; bterm = None }

let switch_to fb lbl = fb.cur <- lbl

let emit fb i =
  let b = Growarr.get fb.blocks fb.cur in
  match b.bterm with
  | None -> b.rev_instrs <- i :: b.rev_instrs
  | Some _ ->
      (* Code after a terminator (e.g. after RETURN): put it in a fresh,
         unreachable block so the CFG stays well formed. *)
      let lbl = new_block fb in
      switch_to fb lbl;
      (Growarr.get fb.blocks lbl).rev_instrs <- [ i ]

let set_term fb t =
  let b = Growarr.get fb.blocks fb.cur in
  match b.bterm with
  | None -> b.bterm <- Some t
  | Some _ ->
      let lbl = new_block fb in
      switch_to fb lbl;
      (Growarr.get fb.blocks lbl).bterm <- Some t

let fresh fb kind =
  let t = Growarr.push fb.kinds kind in
  t

let kind_of fb t = Growarr.get fb.kinds t

let kind_of_operand fb = function
  | Ir.Oimm _ -> Ir.Kscalar
  | Ir.Otemp t -> kind_of fb t

(* Derivation base for a pointer-or-derived temp, applying the paper's base
   preference: stack-allocated user variables are chosen over compiler
   temporaries when the temp is a direct copy of a stable local (§4). *)
let base_of fb t =
  match Hashtbl.find_opt fb.temp_origin t with
  | Some l -> Deriv.Blocal l
  | None -> Deriv.Btemp t

let deriv_of_value fb (o : Ir.operand) : Deriv.t =
  match o with
  | Ir.Oimm _ -> Deriv.empty
  | Ir.Otemp t -> (
      match kind_of fb t with
      | Ir.Kscalar | Ir.Kstack -> Deriv.empty
      | Ir.Kptr -> Deriv.of_base (base_of fb t)
      | Ir.Kderived _ ->
          (* The derived temp itself becomes the base; the collector's
             ordering rules handle chains of derivations. *)
          Deriv.of_base (base_of fb t))

(* Kind of an additive combination a + b (or a - b with [sub]). *)
let combine_kind fb ~sub a b =
  let ka = kind_of_operand fb a and kb = kind_of_operand fb b in
  match (ka, kb) with
  | Ir.Kscalar, Ir.Kscalar -> Ir.Kscalar
  | (Ir.Kstack, _ | _, Ir.Kstack) -> Ir.Kstack
  | _ ->
      let da = deriv_of_value fb a and db = deriv_of_value fb b in
      let d = if sub then Deriv.sub da db else Deriv.add da db in
      if Deriv.is_empty d then Ir.Kscalar else Ir.Kderived d

(* Emit [dst := a + b] with correct gc kind; folds immediates. *)
let emit_add fb a b =
  match (a, b) with
  | Ir.Oimm x, Ir.Oimm y -> Ir.Oimm (x + y)
  | Ir.Oimm 0, o | o, Ir.Oimm 0 -> o
  | _ ->
      let k = combine_kind fb ~sub:false a b in
      let t = fresh fb k in
      emit fb (Ir.Bin (Ir.Add, t, a, b));
      Ir.Otemp t

let emit_mul fb a b =
  match (a, b) with
  | Ir.Oimm x, Ir.Oimm y -> Ir.Oimm (x * y)
  | Ir.Oimm 1, o | o, Ir.Oimm 1 -> o
  | _ ->
      let t = fresh fb Ir.Kscalar in
      emit fb (Ir.Bin (Ir.Mul, t, a, b));
      Ir.Otemp t

let emit_sub fb a b =
  match (a, b) with
  | Ir.Oimm x, Ir.Oimm y -> Ir.Oimm (x - y)
  | o, Ir.Oimm 0 -> o
  | _ ->
      let k = combine_kind fb ~sub:true a b in
      let t = fresh fb k in
      emit fb (Ir.Bin (Ir.Sub, t, a, b));
      Ir.Otemp t

(* ------------------------------------------------------------------ *)
(* Error blocks (shared per function; not gc-points)                   *)
(* ------------------------------------------------------------------ *)

let nil_err_block fb =
  match fb.nil_err with
  | Some l -> l
  | None ->
      let l = new_block fb in
      let b = Growarr.get fb.blocks l in
      b.rev_instrs <- [ Ir.Call (None, Ir.Crt Ir.Rt_nil_error, []) ];
      b.bterm <- Some Ir.Unreachable;
      fb.nil_err <- Some l;
      l

let bounds_err_block fb =
  match fb.bounds_err with
  | Some l -> l
  | None ->
      let l = new_block fb in
      let b = Growarr.get fb.blocks l in
      b.rev_instrs <- [ Ir.Call (None, Ir.Crt Ir.Rt_bounds_error, []) ];
      b.bterm <- Some Ir.Unreachable;
      fb.bounds_err <- Some l;
      l

(* Branch to [err] when [a rel b]; fall through otherwise. *)
let emit_guard fb rel a b err =
  let cont = new_block fb in
  set_term fb (Ir.Cjmp (rel, a, b, err, cont));
  switch_to fb cont

let emit_nil_check fb (p : Ir.operand) =
  if fb.checks then emit_guard fb Ir.Req p (Ir.Oimm 0) (nil_err_block fb)

(* ------------------------------------------------------------------ *)
(* Places                                                              *)
(* ------------------------------------------------------------------ *)

type place =
  | Pslot of Ir.local * int (* frame slot + static word offset *)
  | Pglob of int * int
  | Pmem of Ir.temp * int (* computed address + static word offset *)

let place_shift p d =
  match p with
  | Pslot (l, o) -> Pslot (l, o + d)
  | Pglob (g, o) -> Pglob (g, o + d)
  | Pmem (t, o) -> Pmem (t, o + d)

let slot_info fb l = Growarr.get fb.locals l

let scalar_kind_of_ty (ty : Ty.ty) : Ir.kind =
  if Ty.is_ref ty then Ir.Kptr else Ir.Kscalar

let load_place fb p (value_ty : Ty.ty) : Ir.operand =
  let k = scalar_kind_of_ty value_ty in
  match p with
  | Pslot (l, o) ->
      let t = fresh fb k in
      emit fb (Ir.Ld_local (t, l, o));
      (* Record copies of stable pointer locals for base preference. *)
      (match (k, o) with
      | Ir.Kptr, 0 ->
          let info = slot_info fb l in
          if info.Ir.l_slot = Ir.Sptr then Hashtbl.replace fb.temp_origin t l
      | _ -> ());
      Ir.Otemp t
  | Pglob (g, o) ->
      let t = fresh fb k in
      emit fb (Ir.Ld_global (t, g, o));
      Ir.Otemp t
  | Pmem (a, o) ->
      let t = fresh fb k in
      emit fb (Ir.Load (t, Ir.Otemp a, o));
      Ir.Otemp t

let store_place fb p (v : Ir.operand) =
  match p with
  | Pslot (l, o) ->
      (slot_info fb l).Ir.l_stores <- (slot_info fb l).Ir.l_stores + 1;
      emit fb (Ir.St_local (l, o, v))
  | Pglob (g, o) -> emit fb (Ir.St_global (g, o, v))
  | Pmem (a, o) -> emit fb (Ir.Store (Ir.Otemp a, o, v))

(* Address of a place, for VAR-argument passing and WITH aliases. *)
let addr_of_place fb p : Ir.operand =
  match p with
  | Pslot (l, o) ->
      (slot_info fb l).Ir.l_addr_taken <- true;
      let t = fresh fb Ir.Kstack in
      emit fb (Ir.Lda_local (t, l, o));
      Ir.Otemp t
  | Pglob (g, o) ->
      fb.pb.globals.(g).Ir.g_addr_taken <- true;
      let t = fresh fb Ir.Kstack in
      emit fb (Ir.Lda_global (t, g, o));
      Ir.Otemp t
  | Pmem (a, o) -> if o = 0 then Ir.Otemp a else emit_add fb (Ir.Otemp a) (Ir.Oimm o)

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let relop_of_binop : T.tbinop -> Ir.relop option = function
  | T.Beq -> Some Ir.Req
  | T.Bneq -> Some Ir.Rne
  | T.Blt -> Some Ir.Rlt
  | T.Ble -> Some Ir.Rle
  | T.Bgt -> Some Ir.Rgt
  | T.Bge -> Some Ir.Rge
  | T.Badd | T.Bsub | T.Bmul | T.Bdiv | T.Bmod | T.Bmin | T.Bmax | T.Band | T.Bor ->
      None

let arith_of_binop : T.tbinop -> Ir.binop option = function
  | T.Badd -> Some Ir.Add
  | T.Bsub -> Some Ir.Sub
  | T.Bmul -> Some Ir.Mul
  | T.Bdiv -> Some Ir.Div
  | T.Bmod -> Some Ir.Mod
  | T.Bmin -> Some Ir.Min
  | T.Bmax -> Some Ir.Max
  | T.Beq | T.Bneq | T.Blt | T.Ble | T.Bgt | T.Bge | T.Band | T.Bor -> None

let rec lower_expr fb (e : T.texpr) : Ir.operand =
  match e.T.desc with
  | T.Tconst_int n -> Ir.Oimm n
  | T.Tconst_bool b -> Ir.Oimm (if b then 1 else 0)
  | T.Tconst_char c -> Ir.Oimm (Char.code c)
  | T.Tconst_nil -> Ir.Oimm 0
  | T.Tconst_text s ->
      let id = intern_text fb.pb s in
      let t = fresh fb Ir.Kstack in
      emit fb (Ir.Lda_text (t, id));
      Ir.Otemp t
  | T.Tvar v -> (
      match Hashtbl.find_opt fb.var_storage v.T.v_id with
      | Some (Gslot g) -> load_place fb (Pglob (g, 0)) e.T.ty
      | Some (Lslot l) -> (
          match v.T.v_kind with
          | T.Vparam_ref | T.Valias ->
              (* The slot holds an address; the value is behind it. *)
              let ta = load_addr_slot fb l in
              load_place fb (Pmem (ta, 0)) e.T.ty
          | T.Vglobal | T.Vlocal | T.Vparam -> load_place fb (Pslot (l, 0)) e.T.ty)
      | None -> failwith ("Lower: unmapped variable " ^ v.T.v_name))
  | T.Tfield _ | T.Tindex _ | T.Tderef _ ->
      let p = lower_place fb e in
      load_place fb p e.T.ty
  | T.Tbinop ((T.Band | T.Bor), _, _) -> lower_bool_value fb e
  | T.Tbinop (op, a, b) -> (
      match relop_of_binop op with
      | Some r ->
          let oa = lower_expr fb a in
          let ob = lower_expr fb b in
          let t = fresh fb Ir.Kscalar in
          emit fb (Ir.Setrel (r, t, oa, ob));
          Ir.Otemp t
      | None -> (
          let oa = lower_expr fb a in
          let ob = lower_expr fb b in
          match arith_of_binop op with
          | Some Ir.Add -> emit_add fb oa ob
          | Some Ir.Sub -> emit_sub fb oa ob
          | Some Ir.Mul -> emit_mul fb oa ob
          | Some op -> (
              match (oa, ob) with
              | Ir.Oimm x, Ir.Oimm y when op = Ir.Div && y <> 0 -> Ir.Oimm (Support.Ints.m3_div x y)
              | _ ->
                  let t = fresh fb Ir.Kscalar in
                  emit fb (Ir.Bin (op, t, oa, ob));
                  Ir.Otemp t)
          | None -> failwith "Lower: non-arith binop fell through"))
  | T.Tunop (T.Uneg, a) ->
      let oa = lower_expr fb a in
      (match oa with
      | Ir.Oimm n -> Ir.Oimm (-n)
      | _ ->
          let t = fresh fb Ir.Kscalar in
          emit fb (Ir.Neg (t, oa));
          Ir.Otemp t)
  | T.Tunop (T.Uabs, a) ->
      let oa = lower_expr fb a in
      let t = fresh fb Ir.Kscalar in
      emit fb (Ir.Abs (t, oa));
      Ir.Otemp t
  | T.Tunop (T.Unot, a) ->
      let oa = lower_expr fb a in
      let t = fresh fb Ir.Kscalar in
      emit fb (Ir.Setrel (Ir.Req, t, oa, Ir.Oimm 0));
      Ir.Otemp t
  | T.Tconvert a -> lower_expr fb a
  | T.Tcall call -> (
      match lower_call fb call with
      | Some t -> Ir.Otemp t
      | None -> failwith "Lower: value call returned nothing")
  | T.Tnew (referent, len) -> lower_new fb ~loc:e.T.loc referent len
  | T.Tnumber inner -> (
      match inner.T.desc with
      | T.Tderef base ->
          let tp = lower_operand_temp fb (lower_expr fb base) in
          emit_nil_check fb (Ir.Otemp tp);
          let t = fresh fb Ir.Kscalar in
          emit fb (Ir.Load (t, Ir.Otemp tp, 1));
          Ir.Otemp t
      | _ -> failwith "Lower: NUMBER of a non-dereference place")

(* Force an operand into a temp (for address bases). *)
and lower_operand_temp fb (o : Ir.operand) : Ir.temp =
  match o with
  | Ir.Otemp t -> t
  | Ir.Oimm n ->
      let t = fresh fb Ir.Kscalar in
      emit fb (Ir.Mov (t, Ir.Oimm n));
      t

and load_addr_slot fb l : Ir.temp =
  (* Load a VAR-param or alias slot: the temp is derived from the slot
     (paper §3: call-by-reference derived values; §4 indirect references
     become explicit loads from a known location). *)
  let info = slot_info fb l in
  let kind =
    match info.Ir.l_slot with
    | Ir.Saddr | Ir.Sderived _ | Ir.Sambig _ ->
        Ir.Kderived (Deriv.of_base (Deriv.Blocal l))
    | Ir.Sscalar -> Ir.Kstack (* alias over a stack place *)
    | Ir.Sptr | Ir.Saggregate _ -> failwith "Lower: address slot of wrong kind"
  in
  let t = fresh fb kind in
  emit fb (Ir.Ld_local (t, l, 0));
  t

and lower_place fb (e : T.texpr) : place =
  match e.T.desc with
  | T.Tvar v -> (
      match Hashtbl.find_opt fb.var_storage v.T.v_id with
      | Some (Gslot g) -> Pglob (g, 0)
      | Some (Lslot l) -> (
          match v.T.v_kind with
          | T.Vparam_ref | T.Valias -> Pmem (load_addr_slot fb l, 0)
          | T.Vglobal | T.Vlocal | T.Vparam -> Pslot (l, 0))
      | None -> failwith ("Lower: unmapped variable " ^ v.T.v_name))
  | T.Tfield (base, off, _) ->
      let p = lower_place fb base in
      place_shift p off
  | T.Tderef base ->
      let tp = lower_operand_temp fb (lower_expr fb base) in
      emit_nil_check fb (Ir.Otemp tp);
      (* Fixed-size referent: data begins after the one-word header. *)
      Pmem (tp, Rt.Typedesc.fixed_header_words)
  | T.Tindex (base, idx) -> lower_index fb base idx
  | T.Tconst_int _ | T.Tconst_bool _ | T.Tconst_char _ | T.Tconst_nil | T.Tconst_text _
  | T.Tbinop _ | T.Tunop _ | T.Tconvert _ | T.Tcall _ | T.Tnew _ | T.Tnumber _ ->
      failwith "Lower: not a place"

and lower_index fb (base : T.texpr) (idx : T.texpr) : place =
  match base.T.ty with
  | Ty.Tarray { lo; hi; elt } -> (
      let p = lower_place fb base in
      let esz = Ty.size_words elt in
      let iop = lower_expr fb idx in
      if fb.checks then begin
        (match iop with
        | Ir.Oimm c ->
            if c < lo || c > hi then
              (* Statically out of range: trap unconditionally. *)
              emit_guard fb Ir.Req (Ir.Oimm 0) (Ir.Oimm 0) (bounds_err_block fb)
        | Ir.Otemp _ ->
            emit_guard fb Ir.Rlt iop (Ir.Oimm lo) (bounds_err_block fb);
            emit_guard fb Ir.Rgt iop (Ir.Oimm hi) (bounds_err_block fb))
      end;
      match iop with
      | Ir.Oimm c -> place_shift p ((c - lo) * esz)
      | Ir.Otemp _ ->
          (* offset = (i - lo) * esz, then add to the base address. *)
          let off = emit_mul fb (emit_sub fb iop (Ir.Oimm lo)) (Ir.Oimm esz) in
          (match p with
          | Pslot (l, o) ->
              (slot_info fb l).Ir.l_addr_taken <- true;
              let ta = fresh fb Ir.Kstack in
              emit fb (Ir.Lda_local (ta, l, o));
              Pmem (lower_operand_temp fb (emit_add fb (Ir.Otemp ta) off), 0)
          | Pglob (g, o) ->
              fb.pb.globals.(g).Ir.g_addr_taken <- true;
              let ta = fresh fb Ir.Kstack in
              emit fb (Ir.Lda_global (ta, g, o));
              Pmem (lower_operand_temp fb (emit_add fb (Ir.Otemp ta) off), 0)
          | Pmem (t, o) ->
              Pmem (lower_operand_temp fb (emit_add fb (Ir.Otemp t) off), o)))
  | Ty.Topen elt -> (
      (* Open arrays exist only behind a REF; the checker guarantees the
         base is an explicit dereference. *)
      match base.T.desc with
      | T.Tderef refe ->
          let tp = lower_operand_temp fb (lower_expr fb refe) in
          emit_nil_check fb (Ir.Otemp tp);
          let esz = Ty.size_words elt in
          let iop = lower_expr fb idx in
          if fb.checks then begin
            emit_guard fb Ir.Rlt iop (Ir.Oimm 0) (bounds_err_block fb);
            let tlen = fresh fb Ir.Kscalar in
            emit fb (Ir.Load (tlen, Ir.Otemp tp, 1));
            emit_guard fb Ir.Rge iop (Ir.Otemp tlen) (bounds_err_block fb)
          end;
          let hdr = Rt.Typedesc.open_header_words in
          (match iop with
          | Ir.Oimm c -> Pmem (tp, hdr + (c * esz))
          | Ir.Otemp _ ->
              let off = emit_mul fb iop (Ir.Oimm esz) in
              let addr = emit_add fb (Ir.Otemp tp) off in
              Pmem (lower_operand_temp fb addr, hdr))
      | _ -> failwith "Lower: open array place is not a dereference")
  | _ -> failwith "Lower: indexing a non-array"

and lower_new fb ~(loc : M3l.Srcloc.t) (referent : Ty.ty) (len : T.texpr option) :
    Ir.operand =
  match (referent, len) with
  | Ty.Topen elt, Some n ->
      let tdid =
        Rt.Typedesc.intern fb.pb.tdescs (Rt.Typedesc.of_m3l_type (Ty.Topen elt))
      in
      let on = lower_expr fb n in
      if fb.checks then emit_guard fb Ir.Rlt on (Ir.Oimm 0) (bounds_err_block fb);
      let t = fresh fb Ir.Kptr in
      let site = new_site fb.pb ~proc:fb.proc_name ~loc ~tdesc:tdid ~is_open:true in
      emit fb (Ir.Call (Some t, Ir.Crt (Ir.Rt_alloc_open site), [ Ir.Oimm tdid; on ]));
      Ir.Otemp t
  | Ty.Topen _, None -> failwith "Lower: open NEW without length"
  | fixed, _ ->
      let tdid = Rt.Typedesc.intern fb.pb.tdescs (Rt.Typedesc.of_m3l_type fixed) in
      let t = fresh fb Ir.Kptr in
      let site = new_site fb.pb ~proc:fb.proc_name ~loc ~tdesc:tdid ~is_open:false in
      emit fb (Ir.Call (Some t, Ir.Crt (Ir.Rt_alloc site), [ Ir.Oimm tdid ]));
      Ir.Otemp t

and lower_call fb (call : T.call) : Ir.temp option =
  let args =
    List.map
      (fun (a : T.targ) ->
        match a with
        | T.Aval e -> lower_expr fb e
        | T.Aref place_e ->
            let p = lower_place fb place_e in
            addr_of_place fb p)
      call.T.args
  in
  let callee =
    match call.T.callee with
    | T.Cuser psym -> Ir.Cuser psym.T.p_id
    | T.Cbuiltin b ->
        Ir.Crt
          (match b with
          | T.Bput_int -> Ir.Rt_put_int
          | T.Bput_char -> Ir.Rt_put_char
          | T.Bput_text -> Ir.Rt_put_text
          | T.Bput_ln -> Ir.Rt_put_ln
          | T.Bhalt -> Ir.Rt_halt)
  in
  if Ty.equal call.T.ret Ty.Tunit then begin
    emit fb (Ir.Call (None, callee, args));
    None
  end
  else begin
    let k = scalar_kind_of_ty call.T.ret in
    let t = fresh fb k in
    emit fb (Ir.Call (Some t, callee, args));
    Some t
  end

(* Boolean expression in a value context: evaluate via control flow into a
   fresh temp (AND/OR are short-circuiting). *)
and lower_bool_value fb (e : T.texpr) : Ir.operand =
  let t = fresh fb Ir.Kscalar in
  let tl = new_block fb in
  let fl = new_block fb in
  let join = new_block fb in
  lower_cond fb e tl fl;
  switch_to fb tl;
  emit fb (Ir.Mov (t, Ir.Oimm 1));
  set_term fb (Ir.Jmp join);
  switch_to fb fl;
  emit fb (Ir.Mov (t, Ir.Oimm 0));
  set_term fb (Ir.Jmp join);
  switch_to fb join;
  Ir.Otemp t

and lower_cond fb (e : T.texpr) (tl : int) (fl : int) : unit =
  match e.T.desc with
  | T.Tconst_bool true -> set_term fb (Ir.Jmp tl)
  | T.Tconst_bool false -> set_term fb (Ir.Jmp fl)
  | T.Tunop (T.Unot, a) -> lower_cond fb a fl tl
  | T.Tbinop (T.Band, a, b) ->
      let mid = new_block fb in
      lower_cond fb a mid fl;
      switch_to fb mid;
      lower_cond fb b tl fl
  | T.Tbinop (T.Bor, a, b) ->
      let mid = new_block fb in
      lower_cond fb a tl mid;
      switch_to fb mid;
      lower_cond fb b tl fl
  | T.Tbinop (op, a, b) when relop_of_binop op <> None ->
      let r = Option.get (relop_of_binop op) in
      let oa = lower_expr fb a in
      let ob = lower_expr fb b in
      set_term fb (Ir.Cjmp (r, oa, ob, tl, fl))
  | _ ->
      let o = lower_expr fb e in
      set_term fb (Ir.Cjmp (Ir.Rne, o, Ir.Oimm 0, tl, fl))

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let rec lower_stmts fb stmts = List.iter (lower_stmt fb) stmts

and lower_stmt fb (s : T.tstmt) : unit =
  match s with
  | T.Sassign (lhs, rhs) ->
      let v = lower_expr fb rhs in
      let p = lower_place fb lhs in
      store_place fb p v
  | T.Scall call -> ignore (lower_call fb call)
  | T.Sif (branches, els) ->
      let join = new_block fb in
      let rec go = function
        | [] ->
            lower_stmts fb els;
            set_term fb (Ir.Jmp join)
        | (cond, body) :: rest ->
            let bt = new_block fb in
            let bf = new_block fb in
            lower_cond fb cond bt bf;
            switch_to fb bt;
            lower_stmts fb body;
            set_term fb (Ir.Jmp join);
            switch_to fb bf;
            go rest
      in
      go branches;
      switch_to fb join
  | T.Swhile (cond, body) ->
      let header = new_block fb in
      let bodyl = new_block fb in
      let exit = new_block fb in
      set_term fb (Ir.Jmp header);
      switch_to fb header;
      lower_cond fb cond bodyl exit;
      switch_to fb bodyl;
      lower_stmts fb body;
      set_term fb (Ir.Jmp header);
      switch_to fb exit
  | T.Sfor (v, lo, hi, step, body) ->
      let l = local_of fb v in
      let olo = lower_expr fb lo in
      let ohi = lower_expr fb hi in
      (* Keep the loop bound in a temp that stays live through the body. *)
      let thi = lower_operand_temp fb ohi in
      store_place fb (Pslot (l, 0)) olo;
      let header = new_block fb in
      let bodyl = new_block fb in
      let exit = new_block fb in
      set_term fb (Ir.Jmp header);
      switch_to fb header;
      let ti = fresh fb Ir.Kscalar in
      emit fb (Ir.Ld_local (ti, l, 0));
      let rel = if step > 0 then Ir.Rle else Ir.Rge in
      set_term fb (Ir.Cjmp (rel, Ir.Otemp ti, Ir.Otemp thi, bodyl, exit));
      switch_to fb bodyl;
      lower_stmts fb body;
      let ti2 = fresh fb Ir.Kscalar in
      emit fb (Ir.Ld_local (ti2, l, 0));
      let tn = emit_add fb (Ir.Otemp ti2) (Ir.Oimm step) in
      store_place fb (Pslot (l, 0)) tn;
      set_term fb (Ir.Jmp header);
      switch_to fb exit
  | T.Sreturn e ->
      let o = Option.map (lower_expr fb) e in
      set_term fb (Ir.Ret o)
  | T.Swith_alias (v, place_e, body) ->
      let l = local_of fb v in
      let p = lower_place fb place_e in
      let addr = addr_of_place fb p in
      (* Classify the alias slot: heap places make it a derived slot whose
         bases the collector must know (paper §3); stack/global places make
         it an untraced address. *)
      let info = slot_info fb l in
      (match addr with
      | Ir.Oimm _ -> failwith "Lower: alias address is immediate"
      | Ir.Otemp ta -> (
          match kind_of fb ta with
          | Ir.Kstack | Ir.Kscalar -> info.Ir.l_slot <- Ir.Sscalar
          | Ir.Kptr -> info.Ir.l_slot <- Ir.Sderived (Deriv.of_base (base_of fb ta))
          | Ir.Kderived d -> info.Ir.l_slot <- Ir.Sderived d));
      store_place fb (Pslot (l, 0)) addr;
      lower_stmts fb body
  | T.Swith_value (v, e, body) ->
      let l = local_of fb v in
      let o = lower_expr fb e in
      store_place fb (Pslot (l, 0)) o;
      lower_stmts fb body

and local_of fb (v : T.var_sym) : Ir.local =
  match Hashtbl.find_opt fb.var_storage v.T.v_id with
  | Some (Lslot l) -> l
  | Some (Gslot _) | None -> failwith ("Lower: expected local storage for " ^ v.T.v_name)

(* ------------------------------------------------------------------ *)
(* Functions and program                                               *)
(* ------------------------------------------------------------------ *)

let slot_kind_of_var (v : T.var_sym) : Ir.slot_kind =
  match v.T.v_kind with
  | T.Vparam_ref -> Ir.Saddr
  | T.Valias -> Ir.Sscalar (* refined at the binding site *)
  | T.Vglobal | T.Vlocal | T.Vparam -> (
      match v.T.v_ty with
      | Ty.Tref _ | Ty.Tnil -> Ir.Sptr
      | Ty.Tint | Ty.Tbool | Ty.Tchar -> Ir.Sscalar
      | Ty.Trecord _ | Ty.Tarray _ -> Ir.Saggregate (Ty.pointer_offsets v.T.v_ty)
      | Ty.Topen _ | Ty.Tunit -> failwith "Lower: open array or unit local")

let size_of_var (v : T.var_sym) : int =
  match v.T.v_kind with
  | T.Vparam_ref | T.Valias -> 1 (* the slot holds an address *)
  | T.Vglobal | T.Vlocal | T.Vparam -> Ty.size_words v.T.v_ty

(* Variables mutated in a procedure body: assigned, or passed by VAR. *)
let mutated_vars (body : T.tstmt list) : Ints.Iset.t =
  let acc = ref Ints.Iset.empty in
  let add v = acc := Ints.Iset.add v.T.v_id !acc in
  let rec expr (e : T.texpr) =
    match e.T.desc with
    | T.Tcall c -> call c
    | T.Tfield (b, _, _) -> expr b
    | T.Tindex (b, i) ->
        expr b;
        expr i
    | T.Tderef b | T.Tconvert b | T.Tunop (_, b) | T.Tnumber b -> expr b
    | T.Tbinop (_, a, b) ->
        expr a;
        expr b
    | T.Tnew (_, n) -> Option.iter expr n
    | T.Tconst_int _ | T.Tconst_bool _ | T.Tconst_char _ | T.Tconst_nil
    | T.Tconst_text _ | T.Tvar _ -> ()
  and call (c : T.call) =
    List.iter
      (fun (a : T.targ) ->
        match a with
        | T.Aval e -> expr e
        | T.Aref pe -> (
            expr pe;
            match pe.T.desc with T.Tvar v -> add v | _ -> ()))
      c.T.args
  and stmt (s : T.tstmt) =
    match s with
    | T.Sassign (lhs, rhs) -> (
        expr rhs;
        expr lhs;
        match lhs.T.desc with T.Tvar v -> add v | _ -> ())
    | T.Scall c -> call c
    | T.Sif (brs, els) ->
        List.iter
          (fun (c, body) ->
            expr c;
            List.iter stmt body)
          brs;
        List.iter stmt els
    | T.Swhile (c, body) ->
        expr c;
        List.iter stmt body
    | T.Sfor (v, lo, hi, _, body) ->
        add v;
        expr lo;
        expr hi;
        List.iter stmt body
    | T.Sreturn e -> Option.iter expr e
    | T.Swith_alias (_, e, body) | T.Swith_value (_, e, body) ->
        expr e;
        List.iter stmt body
  in
  List.iter stmt body;
  !acc

let lower_func pb ~checks ~fid (tp : T.tproc) : Ir.func =
  let fb =
    {
      pb;
      proc_name = tp.T.sym.T.p_name;
      checks;
      blocks = Growarr.create ~dummy:{ rev_instrs = []; bterm = None };
      cur = 0;
      kinds = Growarr.create ~dummy:Ir.Kscalar;
      locals =
        Growarr.create
          ~dummy:
            {
              Ir.l_name = "";
              l_size = 0;
              l_slot = Ir.Sscalar;
              l_user = false;
              l_addr_taken = false;
              l_stores = 0;
            };
      var_storage = Hashtbl.create 16;
      temp_origin = Hashtbl.create 16;
      nil_err = None;
      bounds_err = None;
    }
  in
  (* Copy global storage mappings. *)
  Hashtbl.iter (fun vid g -> Hashtbl.replace fb.var_storage vid (Gslot g)) pb.global_ids;
  let entry = new_block fb in
  switch_to fb entry;
  let mutated = mutated_vars tp.T.body in
  (* Parameters first (locals 0..n-1).  Incoming argument slots are
     read-only (the caller's gc tables describe them for the duration of the
     call); a mutated by-value parameter is shadowed by a real local. *)
  let shadow_inits = ref [] in
  List.iter
    (fun (v : T.var_sym) ->
      let l =
        Growarr.push fb.locals
          {
            Ir.l_name = v.T.v_name;
            l_size = size_of_var v;
            l_slot = slot_kind_of_var v;
            l_user = true;
            l_addr_taken = false;
            l_stores = 0;
          }
      in
      if v.T.v_kind = T.Vparam && Ints.Iset.mem v.T.v_id mutated then
        shadow_inits := (v, l) :: !shadow_inits
      else Hashtbl.replace fb.var_storage v.T.v_id (Lslot l))
    tp.T.sym.T.p_params;
  let nparams = List.length tp.T.sym.T.p_params in
  (* Shadow locals for mutated by-value parameters. *)
  List.iter
    (fun ((v : T.var_sym), (param_slot : Ir.local)) ->
      let shadow =
        Growarr.push fb.locals
          {
            Ir.l_name = v.T.v_name ^ "$shadow";
            l_size = size_of_var v;
            l_slot = slot_kind_of_var v;
            l_user = true;
            l_addr_taken = false;
            l_stores = 1;
          }
      in
      Hashtbl.replace fb.var_storage v.T.v_id (Lslot shadow);
      let t = fresh fb (scalar_kind_of_ty v.T.v_ty) in
      emit fb (Ir.Ld_local (t, param_slot, 0));
      emit fb (Ir.St_local (shadow, 0, Ir.Otemp t)))
    (List.rev !shadow_inits);
  (* Declared locals and checker-introduced FOR/WITH variables. *)
  List.iter
    (fun (v : T.var_sym) ->
      let l =
        Growarr.push fb.locals
          {
            Ir.l_name = v.T.v_name;
            l_size = size_of_var v;
            l_slot = slot_kind_of_var v;
            l_user = true;
            l_addr_taken = false;
            l_stores = 0;
          }
      in
      Hashtbl.replace fb.var_storage v.T.v_id (Lslot l))
    tp.T.locals;
  lower_stmts fb tp.T.body;
  (* Implicit return at the end of the body. *)
  (match (Growarr.get fb.blocks fb.cur).bterm with
  | Some _ -> ()
  | None -> set_term fb (Ir.Ret None));
  let blocks =
    Array.map
      (fun (b : bb) ->
        {
          Ir.instrs = List.rev b.rev_instrs;
          term = (match b.bterm with Some t -> t | None -> Ir.Ret None);
        })
      (Growarr.to_array fb.blocks)
  in
  {
    Ir.fid;
    fname = tp.T.sym.T.p_name;
    params = List.init nparams (fun i -> i);
    nparams;
    ret = not (Ty.equal tp.T.sym.T.p_ret Ty.Tunit);
    ret_ptr = Ty.is_ref tp.T.sym.T.p_ret;
    locals = Growarr.to_array fb.locals;
    blocks;
    temp_kinds = Growarr.to_array fb.kinds;
    ntemps = Growarr.length fb.kinds;
  }

let program ?(checks = true) (tprog : T.tprogram) : Ir.program =
  let globals =
    Array.of_list
      (List.map
         (fun (v : T.var_sym) ->
           {
             Ir.g_name = v.T.v_name;
             g_size = Ty.size_words v.T.v_ty;
             g_ptrs = Ty.pointer_offsets v.T.v_ty;
             g_addr_taken = false;
           })
         tprog.T.globals)
  in
  let global_ids = Hashtbl.create 16 in
  List.iteri (fun i (v : T.var_sym) -> Hashtbl.replace global_ids v.T.v_id i) tprog.T.globals;
  let pb =
    {
      tdescs = Rt.Typedesc.create_table ();
      texts = Growarr.create ~dummy:"";
      text_ids = Ints.Smap.empty;
      globals;
      global_ids;
      nprocs = List.length tprog.T.procs;
      alloc_sites =
        Growarr.create
          ~dummy:
            {
              Ir.as_id = 0;
              as_proc = "";
              as_line = 0;
              as_col = 0;
              as_tdesc = 0;
              as_open = false;
            };
    }
  in
  let funcs =
    List.map (fun (p : T.tproc) -> lower_func pb ~checks ~fid:p.T.sym.T.p_id p) tprog.T.procs
  in
  let main = lower_func pb ~checks ~fid:pb.nprocs tprog.T.main in
  let funcs = Array.of_list (funcs @ [ main ]) in
  Array.iteri (fun i f -> if f.Ir.fid <> i then failwith "Lower: fid mismatch") funcs;
  {
    Ir.pname = tprog.T.prog_name;
    globals;
    texts = Growarr.to_array pb.texts;
    tdescs = Rt.Typedesc.to_array pb.tdescs;
    funcs;
    main_fid = pb.nprocs;
    alloc_sites = Growarr.to_array pb.alloc_sites;
  }
