(* The reference liveness analysis that Mir.Liveness is tested against:
   round-robin passes over every block, fresh sets each pass, and the
   dead-base closure iterated to a fixpoint after every instruction. Slow
   and obviously faithful to the definition; test-only. *)

open Support
module Ir = Mir.Ir
module Deriv = Mir.Deriv

type t = {
  f : Ir.func;
  temp_in : Bitset.t array;
  temp_out : Bitset.t array;
  local_in : Bitset.t array;
  local_out : Bitset.t array;
  always_locals : Bitset.t;
}

let deriv_bases_into (d : Deriv.t) temps locals =
  List.iter
    (function Deriv.Btemp t -> Bitset.set temps t | Deriv.Blocal l -> Bitset.set locals l)
    (Deriv.bases d)

let close_uses (f : Ir.func) temps locals =
  let changed = ref true in
  while !changed do
    changed := false;
    let tc = Bitset.count temps and lc = Bitset.count locals in
    List.iter
      (fun t ->
        match Ir.temp_kind f t with
        | Ir.Kderived d -> deriv_bases_into d temps locals
        | Ir.Kscalar | Ir.Kptr | Ir.Kstack -> ())
      (Bitset.fold List.cons temps []);
    List.iter
      (fun l ->
        match f.Ir.locals.(l).Ir.l_slot with
        | Ir.Sderived d -> deriv_bases_into d temps locals
        | Ir.Sambig a ->
            Bitset.set locals a.Ir.path_local;
            List.iter (fun (_, d) -> deriv_bases_into d temps locals) a.Ir.cases
        | Ir.Sscalar | Ir.Sptr | Ir.Saddr | Ir.Saggregate _ -> ())
      (Bitset.fold List.cons locals []);
    if Bitset.count temps <> tc || Bitset.count locals <> lc then changed := true
  done

let instr_transfer f instr temps locals =
  (match Ir.instr_def instr with Some d -> Bitset.clear temps d | None -> ());
  (match instr with
  | Ir.St_local (l, 0, _) when f.Ir.locals.(l).Ir.l_size = 1 -> Bitset.clear locals l
  | _ -> ());
  List.iter (function Ir.Otemp t -> Bitset.set temps t | Ir.Oimm _ -> ()) (Ir.instr_uses instr);
  List.iter (fun l -> Bitset.set locals l) (Ir.instr_local_reads instr);
  close_uses f temps locals

let term_transfer f term temps locals =
  List.iter (function Ir.Otemp t -> Bitset.set temps t | Ir.Oimm _ -> ()) (Ir.term_uses term);
  close_uses f temps locals

let compute (f : Ir.func) : t =
  let nb = Array.length f.Ir.blocks in
  let nt = f.Ir.ntemps in
  let nl = Array.length f.Ir.locals in
  let always = Bitset.create nl in
  Array.iteri
    (fun l (info : Ir.local_info) ->
      let aggregate =
        match info.Ir.l_slot with
        | Ir.Saggregate _ -> true
        | Ir.Sscalar | Ir.Sptr | Ir.Saddr | Ir.Sderived _ | Ir.Sambig _ -> info.Ir.l_size > 1
      in
      if info.Ir.l_addr_taken || aggregate then Bitset.set always l)
    f.Ir.locals;
  let temp_in = Array.init nb (fun _ -> Bitset.create nt) in
  let temp_out = Array.init nb (fun _ -> Bitset.create nt) in
  let local_in = Array.init nb (fun _ -> Bitset.create nl) in
  let local_out = Array.init nb (fun _ -> Bitset.create nl) in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = nb - 1 downto 0 do
      let blk = f.Ir.blocks.(b) in
      let t_out = Bitset.create nt and l_out = Bitset.create nl in
      List.iter
        (fun s ->
          Bitset.union_into ~dst:t_out temp_in.(s);
          Bitset.union_into ~dst:l_out local_in.(s))
        (Ir.term_succs blk.Ir.term);
      let t = Bitset.copy t_out and l = Bitset.copy l_out in
      term_transfer f blk.Ir.term t l;
      List.iter (fun i -> instr_transfer f i t l) (List.rev blk.Ir.instrs);
      if
        (not (Bitset.equal t temp_in.(b)))
        || (not (Bitset.equal l local_in.(b)))
        || (not (Bitset.equal t_out temp_out.(b)))
        || not (Bitset.equal l_out local_out.(b))
      then begin
        changed := true;
        temp_in.(b) <- t;
        local_in.(b) <- l;
        temp_out.(b) <- t_out;
        local_out.(b) <- l_out
      end
    done
  done;
  Array.iter (fun s -> Bitset.union_into ~dst:s always) local_in;
  Array.iter (fun s -> Bitset.union_into ~dst:s always) local_out;
  { f; temp_in; temp_out; local_in; local_out; always_locals = always }

let per_instr_live_out t b =
  let blk = t.f.Ir.blocks.(b) in
  let instrs = Array.of_list blk.Ir.instrs in
  let n = Array.length instrs in
  let result = Array.make n (Bitset.create 0, Bitset.create 0) in
  let temps = Bitset.copy t.temp_out.(b) in
  let locals = Bitset.copy t.local_out.(b) in
  term_transfer t.f blk.Ir.term temps locals;
  for i = n - 1 downto 0 do
    Bitset.union_into ~dst:locals t.always_locals;
    result.(i) <- (Bitset.copy temps, Bitset.copy locals);
    instr_transfer t.f instrs.(i) temps locals
  done;
  result

let live_at_gcpoint t b i =
  let temps, locals = (per_instr_live_out t b).(i) in
  let temps = Bitset.copy temps in
  (match Ir.instr_def (List.nth t.f.Ir.blocks.(b).Ir.instrs i) with
  | Some d -> Bitset.clear temps d
  | None -> ());
  (temps, locals)

(** [None] when [Mir.Liveness] agrees with the oracle on every block's
    in- and out-sets, every per-instruction live-out set and every call's
    gc-point live sets of [f]; otherwise where they first differ. *)
let disagreement (f : Ir.func) : string option =
  let liv = Mir.Liveness.compute f and o = compute f in
  let same (t1, l1) (t2, l2) = Bitset.equal t1 t2 && Bitset.equal l1 l2 in
  let where what b = Some (Printf.sprintf "%s: %s of block %d" f.Ir.fname what b) in
  let rec blocks b =
    if b >= Array.length f.Ir.blocks then None
    else if not (same (Mir.Liveness.block_live_in liv b) (o.temp_in.(b), o.local_in.(b))) then
      where "live-in" b
    else if not (same (Mir.Liveness.block_live_out liv b) (o.temp_out.(b), o.local_out.(b)))
    then where "live-out" b
    else
      let got = Mir.Liveness.per_instr_live_out liv b and want = per_instr_live_out o b in
      let calls_agree () =
        List.for_all Fun.id
          (List.mapi
             (fun i instr ->
               match instr with
               | Ir.Call _ -> same (Mir.Liveness.live_at_gcpoint liv b i) (live_at_gcpoint o b i)
               | _ -> true)
             f.Ir.blocks.(b).Ir.instrs)
      in
      if Array.length got <> Array.length want || not (Array.for_all2 same got want) then
        where "per-instruction live-out" b
      else if not (calls_agree ()) then where "gc-point live sets" b
      else blocks (b + 1)
  in
  blocks 0
