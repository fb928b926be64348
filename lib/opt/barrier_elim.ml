(** Static elimination of generational write barriers.

    The paper's central currency — what the compiler provably knows at each
    point — pays one more dividend here. The generational collector's
    invariant is that every old→young reference lives in the remembered
    set, filled by a write barrier on every heap pointer store. But a store
    into an object that is {e provably still in the nursery} (or placed in
    the old generation since the last minor collection, which the next
    minor scans once) can never create an unrecorded old→young reference,
    so its barrier is dead weight.

    A temp is "fresh" from the allocation call that defines it until the
    next gc-point: collections happen only at gc-points (allocating calls —
    the same definition the gc tables are built from), so between two
    gc-points a freshly allocated object cannot be promoted. Freshness
    propagates through moves and through pointer arithmetic whose
    pointer-kinded inputs are all fresh (a derived pointer into a fresh
    object is fresh), and dies at every gc-point and at any other
    definition. The analysis is a forward must-dataflow over the CFG (meet
    = intersection; entry starts empty; calls are treated as gc-points
    whenever {!Mir.Ir.call_is_gcpoint} cannot prove otherwise — this pass
    runs without the never-allocates analysis and stays conservative).

    M3L variables round-trip through frame and global slots
    ([St_local]/[Ld_local], [St_global]/[Ld_global]), so the alloc result
    is almost never the store's base temp directly — it is stored to the
    variable's slot and re-loaded. Freshness therefore also tracks {e
    slots}: a slot becomes fresh when a fresh temp is stored to it, a load
    from a fresh slot yields a fresh temp, and slot freshness dies at
    gc-points like everything else. Slots have no hidden aliases as long
    as (a) address-taken locals are never tracked ([l_addr_taken]), and
    (b) any [Store] through a base that is not a heap pointer
    (stack-kinded temp, immediate address) kills every slot — heap
    pointers cannot point at frame or global words, so heap stores leave
    slot freshness intact, and every other write path is one of
    [St_local]/[St_global] (keyed), a kill-all store, or a call that is
    either a gc-point (kill-all) or a runtime routine that writes no user
    memory.

    A [Store] whose target temp is fresh is rewritten to [Store_nb], which
    instruction selection translates without a [Wbar]. The rewrite is
    purely an optimization: running the generational collector with this
    pass disabled is always sound, and the old→young verifier re-checks
    the invariant behind the eliminated barriers at every collection.

    {b Dual semantics.} [Wbar] is also the incremental collector's
    insertion barrier (shade the stored-to slot, {!Gc.Incremental}), so a
    barrier may be elided only if it is dead under {e both} readings. The
    same freshness predicate proves both at once: the incremental
    collector allocates {e white} during marking and takes slices only at
    gc-points, so an object that has not crossed a gc-point since its
    allocation is still white — a store into it cannot create the
    black→white edge the insertion barrier exists to catch (a white
    object's fields are scanned if and when the object itself is shaded).
    The gc-point kill is exactly right for both collectors for the same
    reason: a gc-point is where a minor collection could promote the
    object, and also where a slice could shade it black. The tri-color
    verifier re-checks the invariant behind every elided barrier at each
    slice boundary, just as the old→young verifier does per collection. *)

module Ir = Mir.Ir
module Iset = Support.Ints.Iset
module T = Telemetry

let c_seen = T.Metrics.counter "barrier_elim.stores_seen"
let c_elided = T.Metrics.counter "barrier_elim.stores_elided"

let pointerish (f : Ir.func) (o : Ir.operand) =
  match o with
  | Ir.Oimm _ -> false
  | Ir.Otemp t -> (
      match Ir.temp_kind f t with
      | Ir.Kptr | Ir.Kderived _ -> true
      | Ir.Kscalar | Ir.Kstack -> false)

(* Would instruction selection emit a barrier for this store? Mirrors
   [Codegen.Select.store_needs_barrier]: the target may move (not a stack
   address) and the value is a pointer. *)
let store_needs_barrier (f : Ir.func) (a : Ir.operand) (v : Ir.operand) =
  (match a with
  | Ir.Otemp ta -> ( match Ir.temp_kind f ta with Ir.Kstack -> false | _ -> true)
  | Ir.Oimm _ -> true)
  && pointerish f v

(* Dataflow state: temps and variable slots currently known to hold a
   pointer into an object allocated since the last gc-point. *)
type state = { ft : Iset.t (* fresh temps *); fs : Iset.t (* fresh slot keys *) }

let empty_state = { ft = Iset.empty; fs = Iset.empty }
let state_equal a b = Iset.equal a.ft b.ft && Iset.equal a.fs b.fs
let state_meet a b = { ft = Iset.inter a.ft b.ft; fs = Iset.inter a.fs b.fs }

(* Slot keys: word offset in the low bits (bounded so indices never
   collide), local/global in bit 0. Out-of-range offsets are not tracked. *)
let slot_key ~global idx off =
  if off < 0 || off >= 0x80000 then None
  else Some ((idx lsl 20) lor (off lsl 1) lor if global then 1 else 0)

let trackable_local (f : Ir.func) l =
  not f.Ir.locals.(l).Ir.l_addr_taken

let set_temp st d fresh =
  { st with ft = (if fresh then Iset.add d st.ft else Iset.remove d st.ft) }

let set_slot st key fresh =
  match key with
  | None -> st
  | Some k -> { st with fs = (if fresh then Iset.add k st.fs else Iset.remove k st.fs) }

let operand_fresh st = function Ir.Otemp t -> Iset.mem t st.ft | Ir.Oimm _ -> false

(* One instruction's effect on the fresh state. *)
let transfer (f : Ir.func) (st : state) (i : Ir.instr) : state =
  match i with
  | Ir.Call (d, Ir.Crt (Ir.Rt_alloc _ | Ir.Rt_alloc_open _), _) ->
      (* The gc-point kills everything; the result is the one fresh temp. *)
      let st = empty_state in
      (match d with Some d -> set_temp st d true | None -> st)
  | Ir.Call (d, callee, _) ->
      let st = if Ir.call_is_gcpoint callee then empty_state else st in
      (match d with Some d -> set_temp st d false | None -> st)
  | Ir.Mov (d, s) -> set_temp st d (operand_fresh st s)
  | Ir.Bin (_, d, a, b) ->
      (* Pointer arithmetic: the result points into a fresh object iff
         every pointer-kinded input is fresh (and there is one). *)
      let ptr_temps =
        List.filter_map
          (function
            | Ir.Otemp t when pointerish f (Ir.Otemp t) -> Some t
            | Ir.Otemp _ | Ir.Oimm _ -> None)
          [ a; b ]
      in
      set_temp st d
        (ptr_temps <> [] && List.for_all (fun t -> Iset.mem t st.ft) ptr_temps)
  | Ir.St_local (l, o, v) ->
      set_slot st (slot_key ~global:false l o) (trackable_local f l && operand_fresh st v)
  | Ir.St_global (g, o, v) -> set_slot st (slot_key ~global:true g o) (operand_fresh st v)
  | Ir.Ld_local (d, l, o) ->
      set_temp st d
        (trackable_local f l
        &&
        match slot_key ~global:false l o with
        | Some k -> Iset.mem k st.fs
        | None -> false)
  | Ir.Ld_global (d, g, o) ->
      set_temp st d
        (match slot_key ~global:true g o with Some k -> Iset.mem k st.fs | None -> false)
  | Ir.Store (a, _, _) | Ir.Store_nb (a, _, _) ->
      (* A store through a heap pointer cannot touch a frame or global
         slot; any other base (stack-kinded temp, immediate address) may
         alias an address-taken slot, so it kills them all. *)
      let heap_base =
        match a with
        | Ir.Otemp t -> (
            match Ir.temp_kind f t with
            | Ir.Kptr | Ir.Kderived _ -> true
            | Ir.Kscalar | Ir.Kstack -> false)
        | Ir.Oimm _ -> false
      in
      if heap_base then st else { st with fs = Iset.empty }
  | _ -> (
      (* Any other definition is not provably fresh; remaining effects
         leave the state alone. *)
      match Ir.instr_def i with Some d -> set_temp st d false | None -> st)

let func (f : Ir.func) : bool =
  let n = Array.length f.Ir.blocks in
  let preds = Array.make n [] in
  Array.iteri
    (fun b (blk : Ir.block) ->
      List.iter (fun s -> preds.(s) <- b :: preds.(s)) (Ir.term_succs blk.Ir.term))
    f.Ir.blocks;
  (* Forward must-analysis to a fixpoint: [None] is the optimistic "not yet
     computed" top, ignored by the meet until the block has been visited.
     A non-entry block none of whose predecessors has an out yet is skipped
     rather than given [empty_state]: that is bottom, and raising it on a
     later visit makes the iteration non-monotone, which need not converge.
     A block never reached keeps [ins = empty_state], so nothing is elided
     in it. *)
  let outs : state option array = Array.make n None in
  let ins = Array.make n empty_state in
  let changed = ref true in
  while !changed do
    changed := false;
    for b = 0 to n - 1 do
      let in_set =
        if b = 0 then Some empty_state
        else
          List.fold_left
            (fun acc p ->
              match (outs.(p), acc) with
              | None, acc -> acc
              | Some s, None -> Some s
              | Some s, Some a -> Some (state_meet a s))
            None preds.(b)
      in
      match in_set with
      | None -> ()
      | Some in_set -> (
          ins.(b) <- in_set;
          let out = List.fold_left (transfer f) in_set f.Ir.blocks.(b).Ir.instrs in
          match outs.(b) with
          | Some o when state_equal o out -> ()
          | _ ->
              outs.(b) <- Some out;
              changed := true)
    done
  done;
  (* Rewrite pass: replay the transfer through each block and relabel the
     stores whose target is fresh at that point. *)
  let rewrote = ref false in
  Array.iteri
    (fun b (blk : Ir.block) ->
      let set = ref ins.(b) in
      blk.Ir.instrs <-
        List.map
          (fun i ->
            let i =
              match i with
              | Ir.Store ((Ir.Otemp t as a), o, v) when store_needs_barrier f a v ->
                  T.Metrics.incr c_seen;
                  if Iset.mem t !set.ft then begin
                    T.Metrics.incr c_elided;
                    rewrote := true;
                    Ir.Store_nb (a, o, v)
                  end
                  else i
              | Ir.Store (a, _, v) when store_needs_barrier f a v ->
                  T.Metrics.incr c_seen;
                  i
              | _ -> i
            in
            set := transfer f !set i;
            i)
          blk.Ir.instrs)
    f.Ir.blocks;
  !rewrote

(** Run over the whole program. Must run {e after} any pass that inserts
    gc-points (in particular {!Loop_gcpoints}): an unseen gc-point inside
    a "fresh" range would make an elimination unsound. *)
let run (prog : Ir.program) : unit =
  Telemetry.Trace.span ~cat:"compile" "opt.barrier_elim" (fun () ->
      Array.iter (fun f -> ignore (func f)) prog.Ir.funcs)
