open Support

type t = {
  instrs : Ir.instr array array;
  temp_in : Bitset.t array;
  temp_out : Bitset.t array;
  local_in : Bitset.t array;
  local_out : Bitset.t array;
  live_after : (Bitset.t * Bitset.t) array array;
}

let deriv_bases_into (d : Deriv.t) temps locals =
  List.iter
    (fun b ->
      match b with
      | Deriv.Btemp t -> Bitset.set temps t
      | Deriv.Blocal l -> Bitset.set locals l)
    (Deriv.bases d)

(* Transitive closure of the dead-base rule. *)
let close_uses (f : Ir.func) temps locals =
  let changed = ref true in
  while !changed do
    changed := false;
    let tc = Bitset.count temps and lc = Bitset.count locals in
    Bitset.iter
      (fun t ->
        match Ir.temp_kind f t with
        | Ir.Kderived d -> deriv_bases_into d temps locals
        | Ir.Kscalar | Ir.Kptr | Ir.Kstack -> ())
      (Bitset.copy temps);
    Bitset.iter
      (fun l ->
        match f.Ir.locals.(l).Ir.l_slot with
        | Ir.Sderived d -> deriv_bases_into d temps locals
        | Ir.Sambig a ->
            Bitset.set locals a.Ir.path_local;
            List.iter (fun (_, d) -> deriv_bases_into d temps locals) a.Ir.cases
        | Ir.Sscalar | Ir.Sptr | Ir.Saddr | Ir.Saggregate _ -> ())
      (Bitset.copy locals);
    if Bitset.count temps <> tc || Bitset.count locals <> lc then changed := true
  done

(* [(member, temps, locals)]: the [close_uses] closure of each derived temp,
   and of each derived or ambiguous local, computed once per function. A
   union of closed sets is closed, so unioning in the closure of every
   derived member of a set gives its least closed superset, the same set
   [close_uses] iterates to, in one pass. *)
type closures = (int * Bitset.t * Bitset.t) array * (int * Bitset.t * Bitset.t) array

let closures (f : Ir.func) : closures =
  let nt = f.Ir.ntemps and nl = Array.length f.Ir.locals in
  let closures_of n ~derived ~temp =
    List.init n Fun.id |> List.filter derived
    |> List.map (fun m ->
           let temps = Bitset.create nt and locals = Bitset.create nl in
           Bitset.set (if temp then temps else locals) m;
           close_uses f temps locals;
           (m, temps, locals))
    |> Array.of_list
  in
  ( closures_of nt ~temp:true ~derived:(fun t ->
        match Ir.temp_kind f t with Ir.Kderived _ -> true | _ -> false),
    closures_of nl ~temp:false ~derived:(fun l ->
        match f.Ir.locals.(l).Ir.l_slot with Ir.Sderived _ | Ir.Sambig _ -> true | _ -> false) )

let close ((of_temps, of_locals) : closures) temps locals =
  let add (_, ct, cl) =
    Bitset.union_into ~dst:temps ct;
    Bitset.union_into ~dst:locals cl
  in
  Array.iter (fun ((t, _, _) as c) -> if Bitset.mem temps t then add c) of_temps;
  Array.iter (fun ((l, _, _) as c) -> if Bitset.mem locals l then add c) of_locals

let instr_transfer f cl instr temps locals =
  (* Backward: kill defs, then gen uses, then close. *)
  (match Ir.instr_def instr with Some d -> Bitset.clear temps d | None -> ());
  (match instr with
  | Ir.St_local (l, 0, _) when f.Ir.locals.(l).Ir.l_size = 1 -> Bitset.clear locals l
  | _ -> ());
  List.iter
    (function Ir.Otemp t -> Bitset.set temps t | Ir.Oimm _ -> ())
    (Ir.instr_uses instr);
  List.iter (fun l -> Bitset.set locals l) (Ir.instr_local_reads instr);
  close cl temps locals

let term_transfer cl term temps locals =
  List.iter
    (function Ir.Otemp t -> Bitset.set temps t | Ir.Oimm _ -> ())
    (Ir.term_uses term);
  close cl temps locals

(* Walk block [b] backward: [temps]/[locals] hold its live-out on entry and
   its live-in on return; [after i] sees them live after instruction [i]. *)
let walk_block f cl instrs b temps locals ~after =
  term_transfer cl f.Ir.blocks.(b).Ir.term temps locals;
  for i = Array.length instrs.(b) - 1 downto 0 do
    after i;
    instr_transfer f cl instrs.(b).(i) temps locals
  done

let compute (f : Ir.func) : t =
  let nb = Array.length f.Ir.blocks in
  let nt = f.Ir.ntemps in
  let nl = Array.length f.Ir.locals in
  let cl = closures f in
  let always = Bitset.create nl in
  Array.iteri
    (fun l (info : Ir.local_info) ->
      let aggregate =
        match info.Ir.l_slot with
        | Ir.Saggregate _ -> true
        | Ir.Sscalar | Ir.Sptr | Ir.Saddr | Ir.Sderived _ | Ir.Sambig _ ->
            info.Ir.l_size > 1
      in
      if info.Ir.l_addr_taken || aggregate then Bitset.set always l)
    f.Ir.locals;
  let instrs = Array.map (fun (blk : Ir.block) -> Array.of_list blk.Ir.instrs) f.Ir.blocks in
  let temp_in = Array.init nb (fun _ -> Bitset.create nt) in
  let temp_out = Array.init nb (fun _ -> Bitset.create nt) in
  let local_in = Array.init nb (fun _ -> Bitset.create nl) in
  let local_out = Array.init nb (fun _ -> Bitset.create nl) in
  (* Worklist fixpoint, seeded with every block in reverse order. The
     transfer is monotone and every set starts empty, so in- and out-sets
     only grow: an out-set accumulates its successors' in-sets in place, and
     a block whose in-set grew requeues its predecessors. *)
  let preds = Cfg.predecessors f in
  let queue = Queue.create () and queued = Array.make nb true in
  for b = nb - 1 downto 0 do
    Queue.add b queue
  done;
  let t = Bitset.create nt and l = Bitset.create nl in
  while not (Queue.is_empty queue) do
    let b = Queue.pop queue in
    queued.(b) <- false;
    List.iter
      (fun s ->
        Bitset.union_into ~dst:temp_out.(b) temp_in.(s);
        Bitset.union_into ~dst:local_out.(b) local_in.(s))
      (Ir.term_succs f.Ir.blocks.(b).Ir.term);
    Bitset.reset t;
    Bitset.reset l;
    Bitset.union_into ~dst:t temp_out.(b);
    Bitset.union_into ~dst:l local_out.(b);
    walk_block f cl instrs b t l ~after:ignore;
    if not (Bitset.equal t temp_in.(b) && Bitset.equal l local_in.(b)) then begin
      Bitset.union_into ~dst:temp_in.(b) t;
      Bitset.union_into ~dst:local_in.(b) l;
      List.iter
        (fun p ->
          if not queued.(p) then begin
            queued.(p) <- true;
            Queue.add p queue
          end)
        preds.(b)
    end
  done;
  (* Fold the always-live locals in. *)
  Array.iter (fun s -> Bitset.union_into ~dst:s always) local_in;
  Array.iter (fun s -> Bitset.union_into ~dst:s always) local_out;
  let live_after =
    Array.mapi
      (fun b block_instrs ->
        let temps = Bitset.copy temp_out.(b) and locals = Bitset.copy local_out.(b) in
        let per = Array.make (Array.length block_instrs) (temps, locals) in
        walk_block f cl instrs b temps locals ~after:(fun i ->
            Bitset.union_into ~dst:locals always;
            per.(i) <- (Bitset.copy temps, Bitset.copy locals));
        per)
      instrs
  in
  { instrs; temp_in; temp_out; local_in; local_out; live_after }

let block_live_out t b = (t.temp_out.(b), t.local_out.(b))
let block_live_in t b = (t.temp_in.(b), t.local_in.(b))
let per_instr_live_out t b = t.live_after.(b)

let live_at_gcpoint t b i =
  let per = t.live_after.(b) in
  if i < 0 || i >= Array.length per then invalid_arg "Liveness.live_at_gcpoint";
  let temps, locals = per.(i) in
  let temps = Bitset.copy temps in
  (match Ir.instr_def t.instrs.(b).(i) with Some d -> Bitset.clear temps d | None -> ());
  (temps, Bitset.copy locals)
