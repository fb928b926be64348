(** Promotion of frame locals to temps: the register allocator then keeps
    them in registers, across gc-points too, where the tables describe
    them as they describe any other temp. Until this pass a local lives in
    its frame slot and every read or write of it is a memory access.

    A local is promoted when it is one word, [Sscalar] or [Sptr], its
    address is never taken, it is not an incoming parameter slot (those
    are read-only and described by the caller; lowering shadows a mutated
    parameter by a real local, which qualifies), it is not the path
    variable of an [Sambig] slot nor a base of any derivation, and every
    value it is loaded into or stored from has the kind of its slot. So a
    path variable and every derived slot (a WITH alias, say) stay in the
    frame.

    The rewrite: [d := local[0]] becomes [d := tl] and [local[0] := s]
    becomes [tl := s], where [tl] is a fresh [Kscalar] or [Kptr] temp. The
    frame is zero-filled on entry, so where [tl] is live into the entry
    block it starts as [tl := 0] there, in a block of its own when the
    entry block is a jump target. The local keeps its number with no words
    ([l_size = 0]), so {!Codegen.Frame.layout} gives it no frame word.

    Then each store's defining instruction is retargeted: [x := e; …;
    tl := x] becomes [tl := e] when the move is [x]'s only use, [x] and
    [tl] have the same kind, neither is derived nor a derivation base, and
    nothing in between reads or writes [tl]. Without it a load feeding a
    local, [x := x.tail], costs a load and a move. *)

module Ir = Mir.Ir

(* The kind each local's temp would have, [None] for a local that stays a
   slot. [base_local]: the locals some derivation names. *)
let candidates (f : Ir.func) base_local : Ir.kind option array =
  let kinds =
    Array.mapi
      (fun l (li : Ir.local_info) ->
        if l < f.Ir.nparams || li.Ir.l_size <> 1 || li.Ir.l_addr_taken || base_local.(l) then None
        else
          match li.Ir.l_slot with
          | Ir.Sscalar -> Some Ir.Kscalar
          | Ir.Sptr -> Some Ir.Kptr
          | Ir.Saddr | Ir.Sderived _ | Ir.Sambig _ | Ir.Saggregate _ -> None)
      f.Ir.locals
  in
  let keep l = kinds.(l) <- None in
  Array.iter
    (fun (li : Ir.local_info) ->
      match li.Ir.l_slot with
      | Ir.Sambig a -> keep a.Ir.path_local
      | Ir.Sscalar | Ir.Sptr | Ir.Saddr | Ir.Sderived _ | Ir.Saggregate _ -> ())
    f.Ir.locals;
  let agrees l = function
    | Ir.Oimm _ -> true
    | Ir.Otemp t -> kinds.(l) = Some (Ir.temp_kind f t)
  in
  Array.iter
    (fun (blk : Ir.block) ->
      List.iter
        (function
          | Ir.Ld_local (d, l, o) -> if o <> 0 || not (agrees l (Ir.Otemp d)) then keep l
          | Ir.St_local (l, o, v) -> if o <> 0 || not (agrees l v) then keep l
          | Ir.Lda_local (_, l, _) -> keep l
          | _ -> ())
        blk.Ir.instrs)
    f.Ir.blocks;
  kinds

(* [tl := 0] for each promoted temp live into the entry block, which is
   split first when some block jumps to it. A promoted temp is live there
   exactly when some path from the entry reads it before writing it, so
   this asks the forward solver which promoted temps every path has
   written. {!Mir.Liveness} gives the same answer, but it solves for
   every temp and local with the dead-base closure: taking the entry's
   live-in set from it made this pass two to three times as slow over
   the corpus. The promoted temps are [first ..]; a state is one machine
   word, so they go in chunks of [Sys.int_size - 1]. *)
let init_entry (f : Ir.func) ~first =
  (* The temps of [lo, hi) that some path reads before writing. *)
  let unset lo hi =
    let bit t = if t >= lo && t < hi then 1 lsl (t - lo) else 0 in
    let assign st i = match Ir.instr_def i with Some d -> st lor bit d | None -> st in
    let ins, _ =
      Mir.Cfg.forward f ~entry:0 ~meet:( land ) ~equal:Int.equal ~transfer:(fun b st ->
          List.fold_left assign st f.Ir.blocks.(b).Ir.instrs)
    in
    let read = ref 0 in
    let reads st = function
      | Ir.Otemp t -> read := !read lor (bit t land lnot st)
      | Ir.Oimm _ -> ()
    in
    Array.iteri
      (fun b (blk : Ir.block) ->
        Option.iter
          (fun st ->
            let st =
              List.fold_left
                (fun st i ->
                  List.iter (reads st) (Ir.instr_uses i);
                  assign st i)
                st blk.Ir.instrs
            in
            List.iter (reads st) (Ir.term_uses blk.Ir.term))
          ins.(b))
      f.Ir.blocks;
    List.filter (fun t -> bit t land !read <> 0) (List.init (hi - lo) (( + ) lo))
  in
  let rec chunks lo =
    if lo >= f.Ir.ntemps then []
    else
      let hi = min f.Ir.ntemps (lo + Sys.int_size - 1) in
      unset lo hi @ chunks hi
  in
  let inits = List.map (fun t -> Ir.Mov (t, Ir.Oimm 0)) (chunks first) in
  if inits <> [] then begin
    let entry = f.Ir.blocks.(0) in
    if Array.exists (fun (b : Ir.block) -> List.mem 0 (Ir.term_succs b.Ir.term)) f.Ir.blocks
    then begin
      let body = Mir.Cfg.add_block f ~instrs:entry.Ir.instrs ~term:entry.Ir.term in
      Array.iter
        (fun (b : Ir.block) -> b.Ir.term <- Mir.Cfg.retarget_term b.Ir.term ~from:0 ~dest:body)
        f.Ir.blocks;
      f.Ir.blocks.(0) <- { Ir.instrs = inits; term = Ir.Jmp body }
    end
    else entry.Ir.instrs <- inits @ entry.Ir.instrs
  end

(* The retargeting of definitions into the promoted temps [first ..], in
   the blocks that copy a temp into one. [base_temp]: the temps below
   [first] that some derivation names; none names a promoted temp. *)
let retarget (f : Ir.func) ~first base_temp =
  let copies_in = function Ir.Mov (tl, Ir.Otemp x) -> tl >= first && x <> tl | _ -> false in
  let blocks =
    List.filter (fun (b : Ir.block) -> List.exists copies_in b.Ir.instrs) (Array.to_list f.Ir.blocks)
  in
  if blocks <> [] then begin
    let uses = Ir.use_counts f in
    let plain t =
      (t >= first || not base_temp.(t))
      && match Ir.temp_kind f t with Ir.Kderived _ -> false | Ir.Kscalar | Ir.Kptr | Ir.Kstack -> true
    in
    let touches tl i = Ir.instr_def i = Some tl || List.exists (Ir.is_temp tl) (Ir.instr_uses i) in
    List.iter
      (fun (blk : Ir.block) ->
        let code = Array.of_list (List.map Option.some blk.Ir.instrs) in
        (* The definition of [x] before position [j], if nothing from it
           up to [j] touches [tl]. *)
        let rec def_of x tl j =
          if j < 0 then None
          else
            match code.(j) with
            | None -> def_of x tl (j - 1)
            | Some i when Ir.instr_def i = Some x -> Some j
            | Some i -> if touches tl i then None else def_of x tl (j - 1)
        in
        let rec try_at j =
          match code.(j) with
          | Some (Ir.Mov (tl, Ir.Otemp x) as i)
            when copies_in i && uses.(x) = 1
                 && Ir.temp_kind f x = Ir.temp_kind f tl
                 && plain x && plain tl -> (
              match def_of x tl (j - 1) with
              | Some d ->
                  code.(j) <- None;
                  code.(d) <- Option.map (Ir.map_instr_def (fun _ -> tl)) code.(d);
                  try_at d
              | None -> ())
          | _ -> ()
        in
        Array.iteri (fun j _ -> try_at j) code;
        if Array.exists Option.is_none code then
          blk.Ir.instrs <- List.filter_map Fun.id (Array.to_list code))
      blocks
  end

let run (_prog : Ir.program) (f : Ir.func) : bool =
  let base_temp, base_local = Ir.derivation_bases f in
  let kinds = candidates f base_local in
  if Array.for_all Option.is_none kinds then false
  else begin
    (* The promoted temps are the function's last ones, from [first]. *)
    let first = f.Ir.ntemps in
    let temps = Array.map (Option.map (Ir.fresh_temp f)) kinds in
    let rewrite (i : Ir.instr) =
      match i with
      | Ir.Ld_local (d, l, 0) -> (
          match temps.(l) with Some tl -> Ir.Mov (d, Ir.Otemp tl) | None -> i)
      | Ir.St_local (l, 0, s) -> (
          match temps.(l) with Some tl -> Ir.Mov (tl, s) | None -> i)
      | _ -> i
    in
    Array.iter
      (fun (blk : Ir.block) -> blk.Ir.instrs <- List.map rewrite blk.Ir.instrs)
      f.Ir.blocks;
    Array.iteri
      (fun l t ->
        if Option.is_some t then f.Ir.locals.(l) <- { (f.Ir.locals.(l)) with Ir.l_size = 0 })
      temps;
    init_entry f ~first;
    retarget f ~first base_temp;
    true
  end
