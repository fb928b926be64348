(** NIL-check elimination: a forward must-analysis of which temps and frame
    slots hold a value known not to be NIL, and the rewrite of each test of
    such a value against NIL into a jump. The facts are the non-NIL
    availability that Khedker, Sanyal and Karkare compute over access
    paths (cs/0608104), used here to delete a check rather than to insert a
    null store:
    - the result of [Rt_alloc] and [Rt_alloc_open] is non-NIL;
    - the not-taken edge of [if v = NIL] and the taken edge of [if v # NIL]
      make [v] non-NIL, and with it each slot that holds [v] at the test:
      the one [v] was loaded from and any [v] was stored to in the test's
      block, with no other store to the slot since;
    - a copy, a load of a non-NIL slot and a store of a non-NIL temp carry
      the fact along.

    A fact dies when its temp is redefined, when its slot is stored with a
    value not known to be non-NIL, and when anything else may write the
    slot ({!Mir.Ir.may_write}). A collection moves objects but never turns
    a pointer into NIL.

    A decided test becomes a [Jmp], and {!Layout} drops the error blocks
    it leaves unreachable. With [~audit] the test stays and its NIL edge
    goes to a [Trap] instead, so a run shows any check the analysis
    wrongly proved dead. *)

module Ir = Mir.Ir

let audit_message = "eliminated check fired"

(* [Some (v, non_nil, nil)] when the terminator tests temp [v] against NIL:
   the successors taken when [v] is non-NIL and when it is NIL. *)
let nil_test (t : Ir.term) =
  match t with
  | Ir.Cjmp (Ir.Req, Ir.Otemp v, Ir.Oimm 0, nil, ok)
  | Ir.Cjmp (Ir.Req, Ir.Oimm 0, Ir.Otemp v, nil, ok)
  | Ir.Cjmp (Ir.Rne, Ir.Otemp v, Ir.Oimm 0, ok, nil)
  | Ir.Cjmp (Ir.Rne, Ir.Oimm 0, Ir.Otemp v, ok, nil)
    when ok <> nil ->
      Some (v, ok, nil)
  | Ir.Cjmp _ | Ir.Jmp _ | Ir.Ret _ | Ir.Unreachable | Ir.Trap _ -> None

(* A state is one machine word: bit [i] set means fact [i] holds. *)
let max_facts = Sys.int_size - 1

(* The facts worth tracking: the temps tested against NIL, and backwards
   from them whatever a value reaches them through (copies, loads of
   slots, stores of temps), numbered in the order found up to
   {!max_facts}. A temp or slot left without a number is never known to
   be non-NIL, which is always sound. [tbit] numbers temps; [sbit]
   numbers the words of each local [l] from [base.(l)]; [slots] lists
   the numbered slots with their bits. *)
type facts = {
  tbit : int array;
  sbit : int array;
  base : int array;
  mutable slots : (int * Ir.loc) list;
}

(* Word [o] of local [l]'s index among the function's slot words, or -1. *)
let slot_word (f : Ir.func) base l o =
  if o < 0 || o >= f.Ir.locals.(l).Ir.l_size then -1 else base.(l) + o

let slot_bit fs f l o =
  let s = slot_word f fs.base l o in
  if s < 0 then -1 else fs.sbit.(s)

let number_facts (f : Ir.func) tests : facts =
  let nslots = ref 0 in
  let base =
    Array.map
      (fun (li : Ir.local_info) ->
        let b = !nslots in
        nslots := b + li.Ir.l_size;
        b)
      f.Ir.locals
  in
  let fs =
    { tbit = Array.make f.Ir.ntemps (-1); sbit = Array.make !nslots (-1); base; slots = [] }
  in
  (* Where each temp's and slot's value can come from. *)
  let from_temp = Array.make f.Ir.ntemps [] and from_slot = Array.make !nslots [] in
  let slot = slot_word f base in
  Array.iter
    (fun (blk : Ir.block) ->
      List.iter
        (function
          | Ir.Mov (d, Ir.Otemp s) -> from_temp.(d) <- `Temp s :: from_temp.(d)
          | Ir.Ld_local (d, l, o) ->
              let s = slot l o in
              if s >= 0 then from_temp.(d) <- `Slot (s, l, o) :: from_temp.(d)
          | Ir.St_local (l, o, Ir.Otemp t) ->
              let s = slot l o in
              if s >= 0 then from_slot.(s) <- `Temp t :: from_slot.(s)
          | _ -> ())
        blk.Ir.instrs)
    f.Ir.blocks;
  let next = ref 0 in
  let rec mark = function
    | `Temp t when fs.tbit.(t) < 0 && !next < max_facts ->
        fs.tbit.(t) <- !next;
        incr next;
        List.iter mark from_temp.(t)
    | `Slot (s, l, o) when fs.sbit.(s) < 0 && !next < max_facts ->
        fs.sbit.(s) <- !next;
        fs.slots <- (1 lsl !next, Ir.Lslot (l, o)) :: fs.slots;
        incr next;
        List.iter mark from_slot.(s)
    | `Temp _ | `Slot _ -> ()
  in
  Array.iter (function Some (v, _, _) -> mark (`Temp v) | None -> ()) tests;
  fs

let bit b = if b < 0 then 0 else 1 lsl b

(* The slot facts that [i] may kill by writing their slot. *)
let written prog f fs i =
  if fs.slots = [] || not (Ir.writes i) then 0
  else
    List.fold_left
      (fun m (b, loc) -> if Ir.may_write prog f i loc then m lor b else m)
      0 fs.slots

(* The facts that hold on the non-NIL edge of a test of [v] at the end of
   [instrs]: [v]'s, and those of the slots that hold [v] there. *)
let edge_facts prog fs (f : Ir.func) v instrs =
  let slot l o = bit (slot_bit fs f l o) in
  let rec scan written_since = function
    | [] -> 0
    | Ir.Ld_local (d, l, o) :: _ when d = v -> slot l o land lnot written_since
    | i :: rest -> (
        match Ir.instr_def i with
        | Some d when d = v -> 0
        | Some _ | None ->
            let holds =
              match i with
              | Ir.St_local (l, o, Ir.Otemp t) when t = v -> slot l o land lnot written_since
              | _ -> 0
            in
            holds lor scan (written_since lor written prog f fs i) rest)
  in
  bit fs.tbit.(v) lor scan 0 (List.rev instrs)

let known fs st = function Ir.Otemp t -> st land bit fs.tbit.(t) <> 0 | Ir.Oimm n -> n <> 0

let define fs st d fact =
  let b = bit fs.tbit.(d) in
  if fact then st lor b else st land lnot b

let transfer prog (f : Ir.func) fs st (i : Ir.instr) =
  let st = st land lnot (written prog f fs i) in
  match i with
  | Ir.Call (Some d, Ir.Crt (Ir.Rt_alloc _ | Ir.Rt_alloc_open _), _) -> define fs st d true
  | Ir.Mov (d, s) -> define fs st d (known fs st s)
  | Ir.Ld_local (d, l, o) -> define fs st d (st land bit (slot_bit fs f l o) <> 0)
  | Ir.St_local (l, o, v) ->
      if known fs st v then st lor bit (slot_bit fs f l o) else st
  | Ir.Bin (_, d, _, _)
  | Ir.Neg (d, _)
  | Ir.Abs (d, _)
  | Ir.Setrel (_, d, _, _)
  | Ir.Ld_global (d, _, _)
  | Ir.Lda_local (d, _, _)
  | Ir.Lda_global (d, _, _)
  | Ir.Lda_text (d, _)
  | Ir.Load (d, _, _)
  | Ir.Call (Some d, _, _) ->
      define fs st d false
  | Ir.St_global _ | Ir.Store _ | Ir.Store_nb _ | Ir.Call (None, _, _) -> st

let run ?(audit = false) (prog : Ir.program) (f : Ir.func) : bool =
  let blocks = f.Ir.blocks in
  let tests = Array.map (fun (b : Ir.block) -> nil_test b.Ir.term) blocks in
  if Array.for_all Option.is_none tests then false
  else begin
    let nb = Array.length blocks in
    let fs = number_facts f tests in
    (* What each edge adds: [along.(p)] holds on the edge from [p] to
       [ok.(p)], the non-NIL successor of its test. *)
    let ok = Array.make nb (-1) and along = Array.make nb 0 in
    Array.iteri
      (fun b t ->
        match t with
        | Some (v, s, _) ->
            ok.(b) <- s;
            along.(b) <- edge_facts prog fs f v blocks.(b).Ir.instrs
        | None -> ())
      tests;
    let transfer b st = List.fold_left (transfer prog f fs) st blocks.(b).Ir.instrs in
    (* Does block [p], ending with the facts [out], end with a decided test? *)
    let decides p out =
      match tests.(p) with Some (v, _, _) -> out land bit fs.tbit.(v) <> 0 | None -> false
    in
    (* The NIL edge of a decided test is never taken, so it constrains
       nothing: one run leaves nothing for the next to decide. *)
    let edge p s out =
      if ok.(p) = s then Some (out lor along.(p)) else if decides p out then None else Some out
    in
    let _, outs = Mir.Cfg.forward ~edge f ~entry:0 ~meet:( land ) ~equal:Int.equal ~transfer in
    let decided b = match outs.(b) with Some out -> decides b out | None -> false in
    let trap = ref None in
    let trap_block () =
      match !trap with
      | Some l -> l
      | None ->
          let l = Mir.Cfg.add_block f ~instrs:[] ~term:(Ir.Trap audit_message) in
          trap := Some l;
          l
    in
    let rewritten = ref false in
    Array.iteri
      (fun b t ->
        match t with
        | Some (_, ok, nil) when decided b ->
            let blk = f.Ir.blocks.(b) in
            if not audit then begin
              blk.Ir.term <- Ir.Jmp ok;
              rewritten := true
            end
            else if f.Ir.blocks.(nil).Ir.term <> Ir.Trap audit_message then begin
              blk.Ir.term <- Mir.Cfg.retarget_term blk.Ir.term ~from:nil ~dest:(trap_block ());
              rewritten := true
            end
        | _ -> ())
      tests;
    !rewritten
  end
