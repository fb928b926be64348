(** The non-moving mark-sweep core: incremental tri-color collection with
    a hard pause budget, and — the same core with ambiguous roots — the
    conservative baseline of the paper's §7.

    Every collector mode before this one is stop-the-world: the pause
    distributions of BENCH_5 grow linearly with live data, because a full
    collection must trace everything it keeps in one go. This engine
    derives an incremental collector from the same exact compiler-emitted
    machinery — the gc-point tables say precisely where the mutator can be
    pre-empted and precisely which registers, stack words and globals hold
    pointers there — and bounds every collection {e slice} to a budget.

    {2 Derivation (see DESIGN.md §13)}

    The classical derivation from a snapshot-at-the-beginning (SATB)
    deletion barrier does not fit this compiler: the emitted [Wbar] keys
    on the {e stored value} being pointer-kinded, so a NIL store carries
    no barrier, and an SATB log would miss exactly the overwrites that
    erase the snapshot. Instead the existing barrier — emitted {e after}
    the store, against the stored slot — is already a Dijkstra
    {e insertion} barrier: reading the slot at barrier time yields the
    just-stored pointer, and shading it maintains the strong tri-color
    invariant (no black object points at an unshaded white object).
    Incremental update needs a final stop-the-world {e flip} that rescans
    the roots (a pointer can hide in a register across the whole marking
    phase), but the exact tables make that rescan cheap and precise.

    The collector is {e non-moving}: derived (interior) pointers are the
    paper's central problem, and a moving incremental collector would
    have to un-derive and re-derive every derived value at {e every}
    slice boundary — or read-barrier the mutator. Marking in place keeps
    every derived value numerically valid through the whole cycle; only
    the base objects must be retained, and their tidy base pointers are
    in the very tables the slices already walk. Freed objects become
    {e filler} blocks (header [-size]) so the linear heap parse stays
    total, and a first-fit free list in [Vm.Interp] recycles them.

    {2 Scheduling}

    Work is owed in proportion to allocation ({!ratio} units per
    allocated word) and paid in slices at gc-points. A slice processes
    [inc_slice_work] units in deterministic mode — the differential
    suites compare final heap images across engines, so the schedule must
    be a pure function of the allocation stream — or runs until the owed
    work is done or the wall-clock budget ([--pause-budget-us]) expires
    in time mode. Allocation failure forces a stop-the-world finish of
    the in-flight cycle (counted, and visible under [--gc-stats]).

    {2 Ambiguous roots (the conservative baseline, DESIGN.md §13)}

    [install_conservative] runs the same mark, sweep and free list with
    ambiguous roots (every word of the registers, the stack and the
    global area) and an ambiguous field scan (every word of an object).
    A word pins the object containing it, found through an object-start
    bitmap built by one heap parse per collection. It collects only on
    allocation failure, stop-the-world: nothing is paced or barriered. *)

module T = Telemetry
module VI = Vm.Interp
module RM = Gcmaps.Rawmaps

let now_ns = T.Control.now_ns

(* Telemetry handles. [gc.pause_ns] and [gc.collections] are shared with
   the stop-the-world collectors so cross-mode comparisons read one name;
   slices and flips get their own histograms for the per-mode rows of
   [--gc-stats]. *)
let c_collections = T.Metrics.counter "gc.collections"
let c_slices = T.Metrics.counter "gc.slices"
let c_overruns = T.Metrics.counter "gc.slice_overruns"
let c_forced = T.Metrics.counter "gc.forced_finish"
let c_rescans = T.Metrics.counter "gc.mark_rescans"
let c_budget_us = T.Metrics.counter "gc.budget_us"
let h_slice = T.Metrics.histogram "gc.slice_ns"
let h_flip = T.Metrics.histogram "gc.flip_ns"
let h_pause = T.Metrics.histogram "gc.pause_ns"
let h_marked = T.Metrics.histogram "gc.marked_objects"
let h_swept = T.Metrics.histogram "gc.swept_objects"

(* ------------------------------------------------------------------ *)
(* Marking                                                             *)
(* ------------------------------------------------------------------ *)

(* Scan one (marked) object: shade every pointer field. Returns the
   object's size in words — the unit of work accounting. Mirrors the
   Cheney scan loop over the flat layout table. *)
let scan_object (st : VI.t) (inc : VI.inc_state) a =
  let mem = st.VI.mem in
  let l = st.VI.image.Vm.Image.layouts in
  let d = mem.{a} in
  let size = l.Rt.Typedesc.sizes.(d) and offsets = l.Rt.Typedesc.offsets.(d) in
  if size > 0 then begin
    for i = 0 to Array.length offsets - 1 do
      VI.inc_shade st inc mem.{a + Array.unsafe_get offsets i}
    done;
    size
  end
  else begin
    let len = mem.{a + 1} in
    if Array.length offsets > 0 then
      for i = 0 to len - 1 do
        let base = a + Rt.Typedesc.open_header_words - (i * size) in
        Array.iter (fun o -> VI.inc_shade st inc mem.{base + o}) offsets
      done;
    Rt.Typedesc.words size ~length:len
  end

(* Record every object start in [inc_starts]: one linear parse of
   [from_base, alloc), stepping over fillers. *)
let find_starts (st : VI.t) (inc : VI.inc_state) =
  Support.Bitset.reset inc.VI.inc_starts;
  let mem = st.VI.mem in
  let a = ref st.VI.from_base in
  while !a < st.VI.alloc do
    let h = mem.{!a} in
    if h < 0 then a := !a - h
    else begin
      Support.Bitset.set inc.VI.inc_starts (!a - st.VI.from_base);
      a := !a + Vm.Image.object_words st.VI.image mem !a
    end
  done

(** The object an ambiguous word [v] may address, by the starts that
    [find_starts] recorded: the nearest object start at or below [v], if
    [v] lies inside that object, so an interior pointer pins its object;
    [-1] otherwise. *)
let object_containing (st : VI.t) (inc : VI.inc_state) v =
  if v >= st.VI.from_base && v < st.VI.alloc then begin
    let i = Support.Bitset.prev_set inc.VI.inc_starts (v - st.VI.from_base) in
    if i < 0 then -1
    else
      let a = st.VI.from_base + i in
      if v < a + Vm.Image.object_words st.VI.image st.VI.mem a then a else -1
  end
  else -1

let shade_ambiguous (st : VI.t) (inc : VI.inc_state) v =
  let a = object_containing st inc v in
  if a >= 0 then VI.inc_shade st inc a

(* Boehm-style field scan: every word of the object, header included, is
   a potential pointer. *)
let scan_ambiguous (st : VI.t) (inc : VI.inc_state) a =
  let mem = st.VI.mem in
  let size = Vm.Image.object_words st.VI.image mem a in
  for i = a to a + size - 1 do
    shade_ambiguous st inc mem.{i}
  done;
  size

(* The field scanner is a per-object choice; the exact one stays a direct
   call, so its per-field loop pays nothing for the other. *)
let[@inline] scan (st : VI.t) (inc : VI.inc_state) a =
  if inc.VI.inc_ambiguous then scan_ambiguous st inc a else scan_object st inc a

(* Mark-stack overflow recovery: a linear pass over the heap re-scanning
   every marked object. Any marked→unmarked edge is re-shaded (and may
   re-spill, in which case the drain loop runs another pass). Terminates
   because marks only accumulate. *)
let rescan (st : VI.t) (inc : VI.inc_state) =
  inc.VI.inc_rescans <- inc.VI.inc_rescans + 1;
  T.Metrics.incr c_rescans;
  let mem = st.VI.mem in
  let a = ref st.VI.from_base in
  let work = ref 0 in
  while !a < st.VI.alloc do
    let h = mem.{!a} in
    if h < 0 then begin
      (* filler (free block) *)
      a := !a - h;
      incr work
    end
    else begin
      let size = Vm.Image.object_words st.VI.image mem !a in
      if Support.Bitset.mem inc.VI.inc_marks (!a - st.VI.from_base) then
        work := !work + scan st inc !a
      else incr work;
      a := !a + size
    end
  done;
  !work

(* Shade every root the exact tables describe at this gc-point: globals,
   tidy stack slots and tidy registers of every frame. Derived values
   need nothing here — nothing moves, so a derived value stays
   numerically valid, and its base object is itself a tidy root in the
   same tables (the un-derive machinery of the moving collectors depends
   on that already). Returns the number of roots visited. *)
let shade_roots (st : VI.t) (inc : VI.inc_state) frames =
  let n = ref 0 in
  List.iter
    (fun a ->
      incr n;
      VI.inc_shade st inc (VI.read st a))
    st.VI.image.Vm.Image.global_roots;
  List.iter
    (fun (fr : Stackwalk.frame) ->
      List.iter
        (fun l ->
          incr n;
          VI.inc_shade st inc (Stackwalk.read st fr l))
        fr.Stackwalk.fr_gcpoint.RM.stack_ptrs;
      List.iter
        (fun r ->
          incr n;
          VI.inc_shade st inc (Stackwalk.read st fr (Gcmaps.Loc.Lreg r)))
        fr.Stackwalk.fr_gcpoint.RM.reg_ptrs)
    frames;
  !n

(* Ambiguous roots: every word of the general registers, of the stack
   from sp up, and of the global area. The static area ends at the stack
   (the map is statics, stack, heap): scanning up to [heap_base] would
   treat dead stack slots below sp as global roots and pin garbage.
   Returns the number of words visited. *)
let shade_ambiguous_roots (st : VI.t) (inc : VI.inc_state) =
  let img = st.VI.image and mem = st.VI.mem in
  for r = 0 to Machine.Reg.ngeneral - 1 do
    shade_ambiguous st inc st.VI.regs.(r)
  done;
  let sp = VI.sp st in
  for a = sp to img.Vm.Image.stack_top - 1 do
    shade_ambiguous st inc mem.{a}
  done;
  for a = img.Vm.Image.globals_base to img.Vm.Image.stack_base - 1 do
    shade_ambiguous st inc mem.{a}
  done;
  Machine.Reg.ngeneral + (img.Vm.Image.stack_top - sp)
  + (img.Vm.Image.stack_base - img.Vm.Image.globals_base)

(* The root provider: the exact tables over a stack walk, or every word
   that might hold a pointer. Only the exact walk counts traced frames. *)
let shade_all_roots (st : VI.t) (inc : VI.inc_state) =
  if inc.VI.inc_ambiguous then shade_ambiguous_roots st inc
  else begin
    let frames = Stackwalk.walk st in
    st.VI.gc.VI.frames_traced <- st.VI.gc.VI.frames_traced + List.length frames;
    shade_roots st inc frames
  end

(* Drain the work list completely, including spill-recovery passes. *)
let drain (st : VI.t) (inc : VI.inc_state) =
  let work = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    if inc.VI.inc_gray_len > 0 then begin
      inc.VI.inc_gray_len <- inc.VI.inc_gray_len - 1;
      work := !work + scan st inc inc.VI.inc_gray.(inc.VI.inc_gray_len)
    end
    else if inc.VI.inc_spilled then begin
      inc.VI.inc_spilled <- false;
      work := !work + rescan st inc
    end
    else continue_ := false
  done;
  !work

(* ------------------------------------------------------------------ *)
(* Cycle boundaries                                                    *)
(* ------------------------------------------------------------------ *)

let start_cycle (st : VI.t) (inc : VI.inc_state) =
  st.VI.gc.VI.collections <- st.VI.gc.VI.collections + 1;
  T.Metrics.incr c_collections;
  (* Fresh mark bits: the whole heap turns white. The bitset is cleared
     in place, not reallocated — an O(heap/62) Array.fill with no
     allocation, so the first (budgeted) slice of a cycle never triggers
     an OCaml-GC pause of its own. *)
  Support.Bitset.reset inc.VI.inc_marks;
  inc.VI.inc_gray_len <- 0;
  inc.VI.inc_spilled <- false;
  inc.VI.inc_work_base <- st.VI.alloc_words;
  inc.VI.inc_work_done <- 0;
  inc.VI.inc_phase <- VI.Inc_marking;
  if inc.VI.inc_ambiguous then find_starts st inc;
  shade_all_roots st inc

(* The final stop-the-world flip: rescan every root (an incremental-
   update collector must — the mutator may have kept the only pointer to
   a white object in a register since before marking began), drain the
   work list, and arm the sweep. The whole-heap snapshot of liveness is
   taken here: everything unmarked and below the captured frontier is
   garbage. *)
let flip (st : VI.t) (inc : VI.inc_state) =
  let t0 = now_ns () in
  (* Explicit sequencing: the roots must be shaded BEFORE the final drain
     ([+] evaluates right-to-left in OCaml — the one-expression form ran
     the drain first and left the re-shaded roots unscanned). *)
  let w_roots = shade_all_roots st inc in
  let w = w_roots + drain st inc in
  assert (inc.VI.inc_gray_len = 0 && not inc.VI.inc_spilled);
  inc.VI.inc_sweep_limit <- st.VI.alloc;
  inc.VI.inc_sweep_cursor <- st.VI.from_base;
  inc.VI.inc_run_lo <- -1;
  (* The free list is rebuilt by the sweep: old entries are fillers in
     the heap and will be rediscovered (coalesced with newly freed
     neighbours) as the cursor passes them. *)
  st.VI.free_list <- [];
  inc.VI.inc_phase <- VI.Inc_sweeping;
  T.Metrics.observe_ns h_flip (Int64.sub (now_ns ()) t0);
  w

(* Close the open free run at [hi]: write the filler header and publish
   the block. Blocks are prepended — first-fit order is then most-
   recently-swept first, which is deterministic (all that matters for the
   cross-engine image comparisons). *)
let close_run (st : VI.t) (inc : VI.inc_state) hi =
  if inc.VI.inc_run_lo >= 0 then begin
    let lo = inc.VI.inc_run_lo in
    inc.VI.inc_run_lo <- -1;
    let words = hi - lo in
    if words > 0 then begin
      Vm.Mem.set st.VI.mem lo (-words);
      st.VI.free_list <- (lo, words) :: st.VI.free_list
    end
  end

let finish_sweep (st : VI.t) (inc : VI.inc_state) =
  (* If the final run reaches the frontier (and nothing was bump-allocated
     past the flip), retreat the frontier instead of listing the block:
     bump room is better than a free-list block (no fit search, no
     split), and the retreat is a deterministic function of the same
     sweep state. *)
  if inc.VI.inc_run_lo >= 0 && st.VI.alloc = inc.VI.inc_sweep_limit then begin
    st.VI.alloc <- inc.VI.inc_run_lo;
    inc.VI.inc_run_lo <- -1
  end;
  close_run st inc inc.VI.inc_sweep_limit;
  inc.VI.inc_phase <- VI.Inc_idle;
  inc.VI.inc_cycles <- inc.VI.inc_cycles + 1;
  inc.VI.inc_cycle_start_words <- st.VI.alloc_words

(* Sweep up to [quota] words from the cursor. Unmarked objects and old
   fillers merge into free runs; marked objects close the current run and
   survive (their mark bits die with the bitset at the next cycle
   start). Objects allocated after the flip sit beyond [inc_sweep_limit]
   and are never visited. *)
let sweep_chunk (st : VI.t) (inc : VI.inc_state) ~quota =
  let mem = st.VI.mem in
  let work = ref 0 in
  while !work < quota && inc.VI.inc_sweep_cursor < inc.VI.inc_sweep_limit do
    let a = inc.VI.inc_sweep_cursor in
    let h = mem.{a} in
    if h < 0 then begin
      let size = -h in
      if inc.VI.inc_run_lo < 0 then inc.VI.inc_run_lo <- a;
      inc.VI.inc_sweep_cursor <- a + size;
      work := !work + 1
    end
    else begin
      let size = Vm.Image.object_words st.VI.image mem a in
      if Support.Bitset.mem inc.VI.inc_marks (a - st.VI.from_base) then
        close_run st inc a
      else begin
        if inc.VI.inc_run_lo < 0 then inc.VI.inc_run_lo <- a;
        inc.VI.inc_swept_objects <- inc.VI.inc_swept_objects + 1;
        inc.VI.inc_swept_words <- inc.VI.inc_swept_words + size
      end;
      inc.VI.inc_sweep_cursor <- a + size;
      work := !work + size
    end
  done;
  if inc.VI.inc_sweep_cursor >= inc.VI.inc_sweep_limit then finish_sweep st inc;
  !work

(* ------------------------------------------------------------------ *)
(* Slices                                                              *)
(* ------------------------------------------------------------------ *)

(* Objects scanned between wall-clock checks in time mode: the budget's
   documented slack is one granule plus one object scan. *)
let mark_granule = 8

(* Only slices run work, and only the incremental collector slices, so
   the marking loop calls the exact scanner directly. *)
let run_work (st : VI.t) (inc : VI.inc_state) ~quota ~deadline =
  let work = ref 0 in
  let timed_out = ref false in
  let check_clock () =
    match deadline with
    | None -> ()
    | Some d -> if now_ns () >= d then timed_out := true
  in
  while (not !timed_out) && !work < quota && inc.VI.inc_phase <> VI.Inc_idle do
    (match inc.VI.inc_phase with
    | VI.Inc_idle -> ()
    | VI.Inc_marking ->
        if inc.VI.inc_gray_len = 0 then begin
          if inc.VI.inc_spilled then begin
            inc.VI.inc_spilled <- false;
            work := !work + rescan st inc
          end
          else work := !work + flip st inc
        end
        else begin
          let n = ref mark_granule in
          while !n > 0 && inc.VI.inc_gray_len > 0 do
            inc.VI.inc_gray_len <- inc.VI.inc_gray_len - 1;
            work := !work + scan_object st inc inc.VI.inc_gray.(inc.VI.inc_gray_len);
            decr n
          done
        end
    | VI.Inc_sweeping ->
        work :=
          !work
          + sweep_chunk st inc ~quota:(min (quota - !work) (mark_granule * 64)));
    check_clock ()
  done;
  !work

(* Work ratio: GC work units retired per word allocated while a cycle is
   in flight. A cycle's total work is the live mark plus a full-heap
   sweep, so the ratio must cover (live + heap) / free-headroom with slack
   for floating garbage retained by the insertion barrier — at 4 the
   collector loses the race on ballast-heavy heaps (live ~ heap/3) and
   falls back to forced STW finishes, which is exactly the pause spike
   incremental mode exists to avoid. 16 finishes with margin across the
   bench and fault workloads while the trigger, not the ratio, still
   gates cycle frequency. *)
let ratio = 16

(* Work owed this cycle: proportional-to-allocation pacing. *)
let owed (st : VI.t) (inc : VI.inc_state) =
  (ratio * (st.VI.alloc_words - inc.VI.inc_work_base)) - inc.VI.inc_work_done

(* Close a pause that began at [t0]: every slice and stop-the-world
   collection counts into [gc.total_gc_ns] and the shared pause
   histogram. Returns the pause length. *)
let end_pause (st : VI.t) t0 =
  let dt = Int64.sub (now_ns ()) t0 in
  st.VI.gc.VI.total_gc_ns <- Int64.add st.VI.gc.VI.total_gc_ns dt;
  T.Metrics.observe_ns h_pause dt;
  dt

let verify_boundary (st : VI.t) ~phase =
  if Verify.post_enabled () then
    ignore (Verify.check st ~phase ~frames:(Stackwalk.walk st) ())

let run_slice (st : VI.t) (inc : VI.inc_state) ~start =
  let t0 = now_ns () in
  inc.VI.inc_slices <- inc.VI.inc_slices + 1;
  T.Metrics.incr c_slices;
  let deadline =
    if inc.VI.inc_budget_ns > 0 then
      Some (Int64.add t0 (Int64.of_int inc.VI.inc_budget_ns))
    else None
  in
  let w0 = if start then start_cycle st inc else 0 in
  let quota =
    if inc.VI.inc_budget_ns > 0 then max (owed st inc) inc.VI.inc_slice_work
    else inc.VI.inc_slice_work
  in
  let w = run_work st inc ~quota:(max 0 (quota - w0)) ~deadline in
  inc.VI.inc_work_done <- inc.VI.inc_work_done + w0 + w;
  let dt = end_pause st t0 in
  T.Metrics.observe_ns h_slice dt;
  let dt_i = Int64.to_int dt in
  if dt_i > inc.VI.inc_max_slice_ns then inc.VI.inc_max_slice_ns <- dt_i;
  if inc.VI.inc_budget_ns > 0 && dt_i > inc.VI.inc_budget_ns then begin
    inc.VI.inc_overruns <- inc.VI.inc_overruns + 1;
    T.Metrics.incr c_overruns
  end;
  (* Tri-color and heap invariants at every slice boundary when the
     verifier is armed (the cost is the harness's, not the pause's). *)
  verify_boundary st ~phase:"slice"

(* The gc-point poll, installed as [Vm.Interp.inc_slice]. Both engines
   reach it through the shared [rt_alloc]/[Rt_gc_check] paths, so the
   pre-emption points are identical by construction. *)
let poll (st : VI.t) =
  match st.VI.inc with
  | None -> ()
  | Some inc -> (
      match inc.VI.inc_phase with
      | VI.Inc_idle ->
          if st.VI.alloc_words - inc.VI.inc_cycle_start_words >= inc.VI.inc_trigger
          then run_slice st inc ~start:true
      | VI.Inc_marking | VI.Inc_sweeping ->
          if owed st inc >= inc.VI.inc_slice_work then run_slice st inc ~start:false)

(** One slice now, whatever the pacing says: it starts a cycle when none
    is in flight. Fault storms and schedule tests call it from a wrapped
    [Vm.Interp.inc_slice], at a gc-point. *)
let slice (st : VI.t) =
  match st.VI.inc with
  | None -> ()
  | Some inc -> run_slice st inc ~start:(inc.VI.inc_phase = VI.Inc_idle)

(* ------------------------------------------------------------------ *)
(* Forced (stop-the-world) finish                                      *)
(* ------------------------------------------------------------------ *)

(* A whole cycle at once: start, flip, full sweep. *)
let stop_the_world (st : VI.t) (inc : VI.inc_state) =
  ignore (start_cycle st inc);
  ignore (flip st inc);
  while inc.VI.inc_phase = VI.Inc_sweeping do
    ignore (sweep_chunk st inc ~quota:max_int)
  done

(** The installed [collector] entry point: allocation failed (or a forced
    collection was requested), so a complete mark+sweep cycle runs
    stop-the-world. Any in-flight incremental cycle is {e abandoned}, not
    finished: the insertion barrier conservatively retains everything the
    mutator touched since that cycle's marking began (the classic
    incremental-update floating garbage), so finishing it can reclaim
    nothing at the very moment memory is exhausted. A fresh cycle from
    the roots reclaims exactly what a stop-the-world collection would —
    mid-sweep state needs no unwinding, because the fresh flip re-empties
    the free list and the full sweep re-parses every filler. This is the
    escalation backstop; the pacing exists to make it rare, and
    [--gc-stats] reports every occurrence. *)
let collect (st : VI.t) ~needed:_ =
  match st.VI.inc with
  | None -> ()
  | Some inc ->
      let t0 = now_ns () in
      inc.VI.inc_forced <- inc.VI.inc_forced + 1;
      T.Metrics.incr c_forced;
      stop_the_world st inc;
      ignore (end_pause st t0);
      verify_boundary st ~phase:"post"

(** The conservative baseline's [collector] entry point: a whole cycle,
    stop-the-world, under its own trace span. It is the only way the
    baseline ever collects, so it is not a forced finish. *)
let collect_conservative (st : VI.t) ~needed:_ =
  match st.VI.inc with
  | None -> ()
  | Some inc ->
      let t0 = now_ns () in
      let m0 = inc.VI.inc_marked_objects and s0 = inc.VI.inc_swept_objects in
      T.Trace.begin_span ~cat:"gc"
        ~args:[ ("collection", T.Json.Int (st.VI.gc.VI.collections + 1)) ]
        "gc.collect.conservative";
      stop_the_world st inc;
      ignore (end_pause st t0);
      let marked = inc.VI.inc_marked_objects - m0
      and swept = inc.VI.inc_swept_objects - s0 in
      T.Trace.end_span
        ~args:[ ("marked", T.Json.Int marked); ("swept", T.Json.Int swept) ]
        ();
      T.Metrics.observe h_marked (float_of_int marked);
      T.Metrics.observe h_swept (float_of_int swept);
      verify_boundary st ~phase:"post"

(* ------------------------------------------------------------------ *)
(* Configuration and installation                                      *)
(* ------------------------------------------------------------------ *)

let default_slice_work = 2048

(* Default mark-stack capacity: never spills on sane heaps (an object is
   at least 2 words). *)
let default_gray_cap (st : VI.t) = min ((st.VI.semi_words / 2) + 16) 65536

let new_state (st : VI.t) ~ambiguous ~cap ~trigger ~slice_work ~budget_us : VI.inc_state =
  {
    VI.inc_phase = VI.Inc_idle;
    inc_ambiguous = ambiguous;
    inc_marks = Support.Bitset.create st.VI.semi_words;
    inc_starts = Support.Bitset.create (if ambiguous then st.VI.semi_words else 0);
    inc_gray = Array.make (max 4 cap) 0;
    inc_gray_len = 0;
    inc_spilled = false;
    inc_sweep_cursor = st.VI.from_base;
    inc_sweep_limit = st.VI.from_base;
    inc_run_lo = -1;
    inc_trigger = trigger;
    inc_slice_work = slice_work;
    inc_budget_ns = budget_us * 1000;
    inc_cycle_start_words = 0;
    inc_work_base = 0;
    inc_work_done = 0;
    inc_cycles = 0;
    inc_slices = 0;
    inc_overruns = 0;
    inc_forced = 0;
    inc_max_slice_ns = 0;
    inc_rescans = 0;
    inc_barrier_execs = 0;
    inc_spills = 0;
    inc_marked_objects = 0;
    inc_swept_objects = 0;
    inc_swept_words = 0;
  }

(** Install the incremental collector. [slice_work] (work units per
    deterministic slice) and [gray_cap] (mark-stack capacity) are the two
    test seams that a wrapped poll cannot reach: a poll decides {e when}
    a slice runs, not how much one slice does or when the mark stack
    spills. A cycle starts after a quarter of a semispace (at least 512
    words) has been allocated since the last one ended. *)
let install ?(pause_budget_us = 0) ?(slice_work = default_slice_work) ?gray_cap (st : VI.t)
    : VI.inc_state =
  let trigger = max 512 (st.VI.semi_words / 4) in
  let cap = Option.value gray_cap ~default:(default_gray_cap st) in
  let inc =
    new_state st ~ambiguous:false ~cap ~trigger ~slice_work ~budget_us:pause_budget_us
  in
  st.VI.inc <- Some inc;
  st.VI.inc_slice <- Some poll;
  st.VI.collector <- Some collect;
  if pause_budget_us > 0 then T.Metrics.incr ~by:pause_budget_us c_budget_us;
  inc

(** Install the conservative baseline: the same core with ambiguous roots
    and fields. No slice poll is installed, so it collects only on
    allocation failure. *)
let install_conservative (st : VI.t) : VI.inc_state =
  let inc =
    new_state st ~ambiguous:true ~cap:(default_gray_cap st) ~trigger:max_int
      ~slice_work:default_slice_work ~budget_us:0
  in
  st.VI.inc <- Some inc;
  st.VI.collector <- Some collect_conservative;
  inc

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

type stats = {
  cycles : int;
  slices : int;
  overruns : int;
  forced : int;
  max_slice_ns : int;
  rescans : int;
  spills : int;
  barrier_execs : int;
  marked_objects : int;
  swept_objects : int;
  swept_words : int;
  budget_us : int;
}

let stats (st : VI.t) : stats option =
  match st.VI.inc with
  | None -> None
  | Some i ->
      Some
        {
          cycles = i.VI.inc_cycles;
          slices = i.VI.inc_slices;
          overruns = i.VI.inc_overruns;
          forced = i.VI.inc_forced;
          max_slice_ns = i.VI.inc_max_slice_ns;
          rescans = i.VI.inc_rescans;
          spills = i.VI.inc_spills;
          barrier_execs = i.VI.inc_barrier_execs;
          marked_objects = i.VI.inc_marked_objects;
          swept_objects = i.VI.inc_swept_objects;
          swept_words = i.VI.inc_swept_words;
          budget_us = i.VI.inc_budget_ns / 1000;
        }
