open Support
module Ir = Mir.Ir

type assignment = Areg of int | Aspill of int

type t = {
  assign : assignment array;
  nspills : int;
  used_callee_saved : int list;
}

type interval = { tmp : int; mutable istart : int; mutable iend : int }

let allocate (f : Ir.func) (liv : Mir.Liveness.t) : t =
  let nb = Array.length f.Ir.blocks in
  (* Linear position numbering: block b starts at base.(b); instruction i of
     block b is at base.(b) + i; the terminator takes one position. *)
  let base = Array.make (nb + 1) 0 in
  for b = 0 to nb - 1 do
    base.(b + 1) <- base.(b) + List.length f.Ir.blocks.(b).Ir.instrs + 1
  done;
  let nt = f.Ir.ntemps in
  let intervals = Array.init nt (fun tmp -> { tmp; istart = max_int; iend = min_int }) in
  let extend t p =
    let iv = intervals.(t) in
    if p < iv.istart then iv.istart <- p;
    if p > iv.iend then iv.iend <- p
  in
  let user_call_positions = ref [] in
  for b = 0 to nb - 1 do
    let blk = f.Ir.blocks.(b) in
    let live_after = Mir.Liveness.per_instr_live_out liv b in
    (* Temps live into (out of) the block are live at its first (last)
       position, so interval hulls have no one-position gaps at block
       boundaries. *)
    let in_temps, _ = Mir.Liveness.block_live_in liv b in
    Bitset.iter (fun t -> extend t base.(b)) in_temps;
    let out_temps, _ = Mir.Liveness.block_live_out liv b in
    Bitset.iter (fun t -> extend t (base.(b + 1) - 1)) out_temps;
    List.iteri
      (fun i instr ->
        let p = base.(b) + i in
        (match Ir.instr_def instr with Some d -> extend d (p + 1) | None -> ());
        List.iter
          (function Ir.Otemp t -> extend t p | Ir.Oimm _ -> ())
          (Ir.instr_uses instr);
        let lt, _ll = live_after.(i) in
        Bitset.iter (fun t -> extend t (p + 1)) lt;
        (* Calls: record clobber positions. Bases of derived arguments are
           in [lt]: Liveness keeps them live across the call. *)
        match instr with
        | Ir.Call (_, Ir.Cuser _, _) -> user_call_positions := p :: !user_call_positions
        | _ -> ())
      blk.Ir.instrs;
    (* Terminator uses. *)
    let pterm = base.(b) + List.length blk.Ir.instrs in
    List.iter
      (function Ir.Otemp t -> extend t pterm | Ir.Oimm _ -> ())
      (Ir.term_uses blk.Ir.term)
  done;
  let user_calls = Array.of_list !user_call_positions in
  Array.sort compare user_calls;
  (* Whether some call position p has istart <= p < iend: binary search
     for the first p >= istart. *)
  let crosses_user_call iv =
    let lo = ref 0 and hi = ref (Array.length user_calls) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if user_calls.(mid) < iv.istart then lo := mid + 1 else hi := mid
    done;
    !lo < Array.length user_calls && user_calls.(!lo) < iv.iend
  in
  (* Sort live intervals by start. *)
  let live_ivs =
    Array.to_list intervals |> List.filter (fun iv -> iv.iend >= iv.istart)
    |> List.sort (fun a b -> compare (a.istart, a.iend) (b.istart, b.iend))
  in
  let assign = Array.make nt (Aspill (-1)) in
  let active : (int * interval) list ref = ref [] (* (reg, interval) *) in
  let free_caller = ref Machine.Reg.caller_saved_allocatable in
  let free_callee = ref Machine.Reg.callee_saved in
  let used_callee = ref [] in
  let nspills = ref 0 in
  let expire pos =
    let expired, still = List.partition (fun (_, iv) -> iv.iend < pos) !active in
    List.iter
      (fun (r, _) ->
        if Machine.Reg.is_callee_saved r then free_callee := r :: !free_callee
        else free_caller := r :: !free_caller)
      expired;
    active := still
  in
  List.iter
    (fun iv ->
      expire iv.istart;
      let want_callee = crosses_user_call iv in
      let take_callee () =
        match !free_callee with
        | r :: rest ->
            free_callee := rest;
            if not (List.mem r !used_callee) then used_callee := !used_callee @ [ r ];
            Some r
        | [] -> None
      in
      let take_caller () =
        match !free_caller with
        | r :: rest ->
            free_caller := rest;
            Some r
        | [] -> None
      in
      let reg =
        if want_callee then take_callee ()
        else match take_caller () with Some r -> Some r | None -> take_callee ()
      in
      match reg with
      | Some r ->
          assign.(iv.tmp) <- Areg r;
          active := (r, iv) :: !active
      | None ->
          assign.(iv.tmp) <- Aspill !nspills;
          incr nspills)
    live_ivs;
  { assign; nspills = !nspills; used_callee_saved = !used_callee }

let loc_of_temp t (fr : Frame.t) tmp : Gcmaps.Loc.t =
  match t.assign.(tmp) with
  | Areg r -> Gcmaps.Loc.Lreg r
  | Aspill s -> Gcmaps.Loc.Lmem (Gcmaps.Loc.FP, Frame.spill_off fr s)
