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

    A fact dies when its temp is redefined or its slot is stored with a
    value not known to be non-NIL. Only the slots of locals whose address
    is never taken are tracked: nothing but a [St_local] writes them, so a
    call kills no fact. A collection moves objects but never turns a
    pointer into NIL.

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
   numbers the words of the locals whose address is never taken, from
   [base.(l)] ([-1] when local [l]'s address is taken). *)
type facts = { tbit : int array; sbit : int array; base : int array }

let slot_bit fs (li : Ir.local_info) l o =
  let b = fs.base.(l) in
  if b < 0 || o < 0 || o >= li.Ir.l_size then -1 else fs.sbit.(b + o)

let number_facts (f : Ir.func) tests : facts =
  let nslots = ref 0 in
  let base =
    Array.map
      (fun (li : Ir.local_info) ->
        if li.Ir.l_addr_taken then -1
        else begin
          let b = !nslots in
          nslots := b + li.Ir.l_size;
          b
        end)
      f.Ir.locals
  in
  let fs = { tbit = Array.make f.Ir.ntemps (-1); sbit = Array.make !nslots (-1); base } in
  (* Where each temp's and slot's value can come from. *)
  let from_temp = Array.make f.Ir.ntemps [] and from_slot = Array.make !nslots [] in
  let slot l o =
    if base.(l) < 0 || o < 0 || o >= f.Ir.locals.(l).Ir.l_size then -1 else base.(l) + o
  in
  Array.iter
    (fun (blk : Ir.block) ->
      List.iter
        (function
          | Ir.Mov (d, Ir.Otemp s) -> from_temp.(d) <- `Temp s :: from_temp.(d)
          | Ir.Ld_local (d, l, o) ->
              let s = slot l o in
              if s >= 0 then from_temp.(d) <- `Slot s :: from_temp.(d)
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
    | `Slot s when fs.sbit.(s) < 0 && !next < max_facts ->
        fs.sbit.(s) <- !next;
        incr next;
        List.iter mark from_slot.(s)
    | `Temp _ | `Slot _ -> ()
  in
  Array.iter (function Some (v, _, _) -> mark (`Temp v) | None -> ()) tests;
  fs

let bit b = if b < 0 then 0 else 1 lsl b

(* The facts that hold on the non-NIL edge of a test of [v] at the end of
   [instrs]: [v]'s, and those of the slots that hold [v] there. *)
let edge_facts fs (f : Ir.func) v instrs =
  let slot l o = bit (slot_bit fs f.Ir.locals.(l) l o) in
  let rec scan stored = function
    | [] -> 0
    | Ir.St_local (l, o, src) :: rest ->
        let b = slot l o in
        if b = 0 || stored land b <> 0 then scan stored rest
        else if src = Ir.Otemp v then b lor scan (stored lor b) rest
        else scan (stored lor b) rest
    | Ir.Ld_local (d, l, o) :: _ when d = v ->
        let b = slot l o in
        if stored land b <> 0 then 0 else b
    | i :: rest -> (
        match Ir.instr_def i with Some d when d = v -> 0 | Some _ | None -> scan stored rest)
  in
  bit fs.tbit.(v) lor scan 0 (List.rev instrs)

let known fs st = function Ir.Otemp t -> st land bit fs.tbit.(t) <> 0 | Ir.Oimm n -> n <> 0

let define fs st d fact =
  let b = bit fs.tbit.(d) in
  if fact then st lor b else st land lnot b

let transfer fs (locals : Ir.local_info array) st (i : Ir.instr) =
  match i with
  | Ir.Call (Some d, Ir.Crt (Ir.Rt_alloc _ | Ir.Rt_alloc_open _), _) -> define fs st d true
  | Ir.Mov (d, s) -> define fs st d (known fs st s)
  | Ir.Ld_local (d, l, o) -> define fs st d (st land bit (slot_bit fs locals.(l) l o) <> 0)
  | Ir.St_local (l, o, v) ->
      let b = bit (slot_bit fs locals.(l) l o) in
      if known fs st v then st lor b else st land lnot b
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

let rec transfer_all fs locals st = function
  | [] -> st
  | i :: rest -> transfer_all fs locals (transfer fs locals st i) rest

let run ?(audit = false) (f : Ir.func) : bool =
  let blocks = f.Ir.blocks in
  let tests = Array.map (fun (b : Ir.block) -> nil_test b.Ir.term) blocks in
  if Array.for_all Option.is_none tests then false
  else begin
    let nb = Array.length blocks in
    let fs = number_facts f tests in
    let rpo = Mir.Cfg.reverse_postorder f in
    let preds = Array.make nb [] and index = Array.make nb (-1) in
    Array.iteri (fun i b -> index.(b) <- i) rpo;
    (* Without a back edge, one pass in reverse postorder is the answer. *)
    let loops = ref false in
    Array.iter
      (fun b ->
        List.iter
          (fun s ->
            if index.(s) <= index.(b) then loops := true;
            preds.(s) <- b :: preds.(s))
          (Ir.term_succs blocks.(b).Ir.term))
      rpo;
    (* What each edge adds: [along.(p)] holds on the edge from [p] to
       [ok.(p)], the non-NIL successor of its test. *)
    let ok = Array.make nb (-1) and along = Array.make nb 0 in
    Array.iteri
      (fun b t ->
        match t with
        | Some (v, s, _) ->
            ok.(b) <- s;
            along.(b) <- edge_facts fs f v blocks.(b).Ir.instrs
        | None -> ())
      tests;
    (* [outs.(b)], the facts at [b]'s end: every fact until [b] is first
       visited, so a loop's back edge first assumes the best. *)
    let outs = Array.make nb (-1) in
    let decided p =
      match tests.(p) with
      | Some (v, _, _) -> outs.(p) land bit fs.tbit.(v) <> 0
      | None -> false
    in
    (* The NIL edge of a decided test is never taken, so it constrains
       nothing: one run leaves nothing for the next to decide. *)
    let rec meet b acc = function
      | [] -> acc
      | p :: rest ->
          let along =
            if ok.(p) = b then outs.(p) lor along.(p)
            else if decided p then -1
            else outs.(p)
          in
          meet b (acc land along) rest
    in
    let pass () =
      Array.fold_left
        (fun changed b ->
          let entry = if b = 0 then 0 else meet b (-1) preds.(b) in
          let out = transfer_all fs f.Ir.locals entry blocks.(b).Ir.instrs in
          let changed = changed || out <> outs.(b) in
          outs.(b) <- out;
          changed)
        false rpo
    in
    if pass () && !loops then while pass () do () done;
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
    Array.iter
      (fun b ->
        match tests.(b) with
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
      rpo;
    !rewritten
  end
