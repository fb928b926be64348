open Support
module Ir = Mir.Ir

type assignment = Areg of int | Aspill of int

type t = {
  assign : assignment array;
  nspills : int;
  used_callee_saved : int list;
}

type interval = { tmp : int; mutable istart : int; mutable iend : int }

(* Collect the transitive temp-bases of a derivation. *)
let rec deriv_temp_bases (f : Ir.func) (d : Mir.Deriv.t) acc =
  List.fold_left
    (fun acc b ->
      match b with
      | Mir.Deriv.Blocal _ -> acc
      | Mir.Deriv.Btemp t ->
          if List.mem t acc then acc
          else
            let acc = t :: acc in
            (match Ir.temp_kind f t with
            | Ir.Kderived d' -> deriv_temp_bases f d' acc
            | Ir.Kscalar | Ir.Kptr | Ir.Kstack -> acc))
    acc (Mir.Deriv.bases d)

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
        (* Calls: record clobber positions and force derived-argument bases
           live across the call. *)
        match instr with
        | Ir.Call (_, callee, args) ->
            let is_user = match callee with Ir.Cuser _ -> true | Ir.Crt _ -> false in
            if is_user then user_call_positions := p :: !user_call_positions;
            List.iter
              (function
                | Ir.Oimm _ -> ()
                | Ir.Otemp a -> (
                    match Ir.temp_kind f a with
                    | Ir.Kderived d ->
                        List.iter (fun tb -> extend tb (p + 1)) (deriv_temp_bases f d [])
                    | Ir.Kscalar | Ir.Kptr | Ir.Kstack -> ()))
              args
        | Ir.Mov _ | Ir.Bin _ | Ir.Neg _ | Ir.Abs _ | Ir.Setrel _ | Ir.Ld_local _
        | Ir.St_local _ | Ir.Ld_global _ | Ir.St_global _ | Ir.Lda_local _
        | Ir.Lda_global _ | Ir.Lda_text _ | Ir.Load _ | Ir.Store _ | Ir.Store_nb _ -> ())
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
