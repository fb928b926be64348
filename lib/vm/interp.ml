(** The UVM interpreter.

    Machine state is untagged: registers and memory hold plain integers, and
    heap pointers are just word addresses — nothing at run time
    distinguishes a pointer from an integer except the compiler-emitted gc
    tables, which is the paper's setting.

    Runtime routines execute natively and preserve all registers (except r0
    when they return a value). Allocation may invoke the installed
    collector, which is free to move every heap object and rewrite
    registers, stack and globals through the tables. *)

module I = Machine.Insn

(* Telemetry counters. Allocations are counted at the allocation site; the
   instruction count is synced once per [run] (a per-step probe would tax
   the hot loop even when disabled). *)
let c_allocs = Telemetry.Metrics.counter "vm.allocations"
let c_alloc_words = Telemetry.Metrics.counter "vm.alloc_words"
let c_instructions = Telemetry.Metrics.counter "vm.instructions"
let c_barriers = Telemetry.Metrics.counter "gc.barrier_execs"
let c_remset_inserts = Telemetry.Metrics.counter "gc.remset_inserts"
let c_mark_spills = Telemetry.Metrics.counter "gc.mark_spills"

(* Profile-guided placement accounting (read by mmrun --gc-stats). *)
let c_pretenured_words = Telemetry.Metrics.counter "gc.pretenured_words"
let c_pretenure_sites = Telemetry.Metrics.counter "gc.pretenure_sites"

type gc_stats = {
  mutable collections : int;
  mutable words_copied : int;
  mutable total_gc_ns : int64;
  mutable frames_traced : int;
  mutable objects_copied : int;
  mutable minor_collections : int; (* generational mode only *)
}

(** Generational-mode heap state (installed by [Gc.Nursery]). The current
    from-space is split into an old generation growing up from [from_base]
    (frontier [old_alloc]) and a bump-allocated nursery at the top,
    [nursery_base, from_base + semi_words). Minor collections promote
    nursery survivors to [old_alloc]; the remembered set records old-gen
    slots that may hold nursery pointers (written by the compiler-emitted
    [Wbar] barriers), deduplicated through the [dirty] byte map. *)
type gen_state = {
  nursery_cap : int; (* configured nursery size in words *)
  mutable old_alloc : int; (* old-generation frontier *)
  mutable nursery_base : int;
  mutable nursery_alloc : int; (* nursery bump pointer *)
  dirty : Bytes.t; (* per-heap-word dedup map, index = addr - heap_base *)
  mutable remset : int array; (* recorded old-gen slot addresses *)
  mutable remset_len : int;
  mutable big_objects : int list;
    (* objects placed straight into the old generation (too large for the
       nursery, or policy-pretenured) since the last collection; the next
       minor scans their fields once and empties the list, which keeps
       static barrier elimination sound for them — from then on every
       store into them runs its barrier *)
  mutable barrier_execs : int;
  mutable remset_inserts : int;
  mutable old_request : bool;
    (* an old-generation allocation (policy pretenure or big object) is
       asking the collector for headroom: a minor collection promotes
       {e into} the old generation, so only a full collection can help —
       the collector routes on this flag *)
}

(** Profile-guided placement, installed by the driver (from an [mm-policy]
    file, or by a benchmark from its training run). The decision array is
    consulted on the allocation fast path — one bounds-checked load per
    allocation, no allocation of its own. *)
type placement = {
  pc_decisions : int array; (* site id -> 0 nursery / 1 pretenure *)
  pc_source : string; (* where the decisions came from, e.g. "file" *)
}

(* --- incremental (tri-color mark-sweep) collector state -------------- *)

type inc_phase = Inc_idle | Inc_marking | Inc_sweeping

(** Mutator-facing state of the non-moving mark-sweep core: the
    incremental collector, and (with [inc_ambiguous] set) the
    conservative baseline. Like {!gen_state} this lives here (below the
    gc library) so the write barrier and the allocation fast paths can
    reach it without an indirection; the engine itself — marking,
    sweeping, the flip — is [Gc.Incremental], installed through
    [collector] and, when incremental, the [inc_slice] poll.

    Colors: an object is {e white} when its mark bit is clear, {e gray}
    when marked and still on the work list, {e black} when marked and
    scanned. Objects are allocated white even during marking — a fresh
    object's stores may have had their barriers statically elided
    ([Opt.Barrier_elim]), which is only sound if the fresh object is
    guaranteed unscanned until the next gc-point (allocate-black would
    leave an elided black→white edge unscanned). The final flip rescans
    every root, which is what retains fresh objects held only in
    registers or stack slots. *)
type inc_state = {
  mutable inc_phase : inc_phase;
  inc_ambiguous : bool;
    (* the conservative baseline: roots and object words are ambiguous,
       and collections are only ever stop-the-world *)
  inc_marks : Support.Bitset.t; (* index: header addr - from_base *)
  inc_starts : Support.Bitset.t;
    (* object starts, from one heap parse per ambiguous collection *)
  inc_gray : int array; (* fixed-capacity mark stack; overflow spills *)
  mutable inc_gray_len : int;
  mutable inc_spilled : bool; (* an overflowed push was dropped: some
                                 marked objects are unqueued, so mark
                                 termination needs a linear rescan *)
  mutable inc_sweep_cursor : int;
  mutable inc_sweep_limit : int; (* frontier captured at the flip *)
  mutable inc_run_lo : int; (* open free run during sweep; -1 = none *)
  (* pacing: marking/sweeping work is owed in proportion to allocation
     (a fixed ratio of work units per allocated word, [Gc.Incremental]),
     paid out in slices of [inc_slice_work] units (deterministic mode) or
     clock-capped at [inc_budget_ns] (time mode; 0 selects deterministic
     mode). *)
  inc_trigger : int; (* start a cycle after this many words are allocated *)
  inc_slice_work : int;
  inc_budget_ns : int;
  mutable inc_cycle_start_words : int; (* alloc_words at last cycle end *)
  mutable inc_work_base : int; (* alloc_words at cycle start *)
  mutable inc_work_done : int; (* work units paid this cycle *)
  (* statistics *)
  mutable inc_cycles : int;
  mutable inc_slices : int;
  mutable inc_overruns : int;
  mutable inc_forced : int;
  mutable inc_max_slice_ns : int;
  mutable inc_rescans : int;
  mutable inc_barrier_execs : int;
  mutable inc_spills : int;
  mutable inc_marked_objects : int;
  mutable inc_swept_objects : int;
  mutable inc_swept_words : int;
}

type t = {
  image : Image.t;
  mem : Mem.t;
  regs : int array;
  mutable pc : int;
  mutable halted : bool;
  out : Buffer.t;
  (* Heap state (flipped by the collector): two fixed semispaces of
     [semi_words] words at [image.heap_base] and [heap_base + semi_words].
     The size is copied out of the image so [heap_free] reads it with one
     load on the allocation path. *)
  mutable from_base : int;
  mutable to_base : int;
  semi_words : int;
  mutable alloc : int;
  mutable free_list : (int * int) list;
    (* (addr, size) first-fit blocks of the non-moving mark-sweep core;
       every block carries a filler header (-size), so the heap parses *)
  mutable collector : (t -> needed:int -> unit) option;
  mutable gen : gen_state option; (* Some iff running generationally *)
  mutable inc : inc_state option; (* Some iff a mark-sweep core runs *)
  mutable inc_slice : (t -> unit) option;
    (* the gc-point poll, called at every allocation and Rt_gc_check (the
       paper's §5.3 loop-backedge gc-points) with [pc] on the call, so both
       execution engines observe the same points. Gc.Incremental installs
       its slice scheduler here; fault storms wrap it to force collections
       and slices. *)
  mutable placement : placement option; (* profile-guided placement, if any *)
  mutable prof : Profile.t option; (* allocation-site profiler, if attached *)
  mutable icount : int;
  mutable alloc_count : int;
  mutable alloc_words : int;
  gc : gc_stats;
}

let create (image : Image.t) : t =
  let mem = Image.init_mem image in
  {
    image;
    mem;
    regs = Array.make Machine.Reg.nregs 0;
    pc = image.Image.procs.(image.Image.main_fid).Image.pi_entry;
    halted = false;
    out = Buffer.create 256;
    from_base = image.Image.heap_base;
    to_base = image.Image.heap_base + image.Image.semi_words;
    semi_words = image.Image.semi_words;
    alloc = image.Image.heap_base;
    free_list = [];
    collector = None;
    gen = None;
    inc = None;
    inc_slice = None;
    placement = None;
    prof = None;
    icount = 0;
    alloc_count = 0;
    alloc_words = 0;
    gc =
      {
        collections = 0;
        words_copied = 0;
        total_gc_ns = 0L;
        frames_traced = 0;
        objects_copied = 0;
        minor_collections = 0;
      };
  }

let sp t = t.regs.(Machine.Reg.sp)
let fp t = t.regs.(Machine.Reg.fp)
let set_sp t v = t.regs.(Machine.Reg.sp) <- v
let set_fp t v = t.regs.(Machine.Reg.fp) <- v

(* The memory primitives of both engines: an explicit range test, then the
   unchecked access. They inline into every caller, the threaded engine's
   compiled closures included, so the failure paths are separate functions
   that keep the inlined bodies small. *)

let oob_read a = Vm_error.fail "memory read out of range: %d" a
let oob_write a = Vm_error.fail "memory write out of range: %d" a
let stack_overflow () = Vm_error.fail "stack overflow"

let[@inline always] read t a =
  if a < 0 || a >= Mem.length t.mem then oob_read a else Mem.unsafe_get t.mem a

let[@inline always] write t a v =
  if a < 8 || a >= Mem.length t.mem then oob_write a else Mem.unsafe_set t.mem a v

let eval t (o : I.operand) : int =
  match o with
  | I.Reg r -> t.regs.(r)
  | I.Imm n -> n
  | I.Mem (r, d) -> read t (t.regs.(r) + d)
  | I.Mem2 (r1, r2, d) -> read t (t.regs.(r1) + t.regs.(r2) + d)
  | I.Defer (r, d1, d2) -> read t (read t (t.regs.(r) + d1) + d2)
  | I.Abs a -> read t a

let addr_of t (o : I.operand) : int =
  match o with
  | I.Mem (r, d) -> t.regs.(r) + d
  | I.Mem2 (r1, r2, d) -> t.regs.(r1) + t.regs.(r2) + d
  | I.Defer (r, d1, d2) -> read t (t.regs.(r) + d1) + d2
  | I.Abs a -> a
  | I.Reg _ | I.Imm _ -> Vm_error.fail "effective address of a non-memory operand"

let store t (o : I.operand) v =
  match o with
  | I.Reg r -> t.regs.(r) <- v
  | I.Imm _ -> Vm_error.fail "store to immediate"
  | I.Mem _ | I.Mem2 _ | I.Defer _ | I.Abs _ -> write t (addr_of t o) v

(* Modula-3 arithmetic ({!Support.Ints.m3_div}), trapping on a zero
   divisor. *)
let m3_div a b = if b = 0 then Vm_error.fail "division by zero" else Support.Ints.m3_div a b
let m3_mod a b = if b = 0 then Vm_error.fail "modulo by zero" else Support.Ints.m3_mod a b

let apply_aop (op : I.aop) a b =
  match op with
  | I.Add -> a + b
  | I.Sub -> a - b
  | I.Mul -> a * b
  | I.Div -> m3_div a b
  | I.Mod -> m3_mod a b
  | I.Min -> min a b
  | I.Max -> max a b
  | I.Neg -> -a
  | I.Abso -> abs a
  | I.Setcc r -> if I.relop_eval r a b then 1 else 0

(* Overflow check, sp update, then the (upper-bound checked) store — in
   that order, so a faulting push leaves the same machine state in both
   engines. *)
let[@inline always] push t v =
  let nsp = sp t - 1 in
  if nsp < t.image.Image.stack_base then stack_overflow ();
  set_sp t nsp;
  write t nsp v

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)
(* ------------------------------------------------------------------ *)

let heap_free t = t.from_base + t.semi_words - t.alloc

(* --- generational mode -------------------------------------------- *)

let gen_nursery_limit t = t.from_base + t.semi_words
let gen_nursery_free t (g : gen_state) = gen_nursery_limit t - g.nursery_alloc

(** Install generational heap state: the nursery takes the top
    [nursery_words] of from-space (clamped to the semispace), the old
    generation is whatever already sits at the bottom — empty on a fresh
    machine. *)
let gen_init t ~nursery_words =
  let semi = t.semi_words in
  let cap = min semi (max 1 nursery_words) in
  let base = max t.alloc (t.from_base + semi - cap) in
  let g =
    {
      nursery_cap = cap;
      old_alloc = t.alloc;
      nursery_base = base;
      nursery_alloc = base;
      dirty = Bytes.make (Mem.length t.mem - t.image.Image.heap_base) '\000';
      remset = Array.make 64 0;
      remset_len = 0;
      big_objects = [];
      barrier_execs = 0;
      remset_inserts = 0;
      old_request = false;
    }
  in
  t.gen <- Some g;
  g

(** Rebuild the generational view after a full collection flipped the
    semispaces: the survivors at [from_base, alloc) become the new old
    generation, the nursery re-opens empty at the top, and the remembered
    set is void — every recorded address referred to the old from-space. *)
let gen_reset_after_full t =
  match t.gen with
  | None -> ()
  | Some g ->
      g.old_alloc <- t.alloc;
      let base = max t.alloc (gen_nursery_limit t - g.nursery_cap) in
      g.nursery_base <- base;
      g.nursery_alloc <- base;
      let hb = t.image.Image.heap_base in
      for i = 0 to g.remset_len - 1 do
        Bytes.set g.dirty (g.remset.(i) - hb) '\000'
      done;
      g.remset_len <- 0;
      g.big_objects <- []

(** Allocate [size] words directly on the old-generation frontier — the
    slow path of big objects and policy-pretenured ones. A minor
    collection promotes {e into} the old generation and so can never
    create headroom here; [old_request] routes the installed collector
    straight to a full collection. *)
let allocate_old t (g : gen_state) size =
  if g.nursery_base - g.old_alloc < size then begin
    g.old_request <- true;
    (match t.collector with Some collect -> collect t ~needed:size | None -> ());
    g.old_request <- false
  end;
  (* When the nursery is empty (always true right after a full
     collection) an oversized object may displace it, so exhaustion
     strikes exactly when the non-generational collector would run out. *)
  let room =
    if g.nursery_alloc = g.nursery_base then gen_nursery_limit t - g.old_alloc
    else g.nursery_base - g.old_alloc
  in
  if room < size then
    Vm_error.(error (Heap_exhausted { needed = size; free = room }));
  let a = g.old_alloc in
  g.old_alloc <- a + size;
  if g.old_alloc > g.nursery_base then begin
    g.nursery_base <- g.old_alloc;
    g.nursery_alloc <- g.old_alloc
  end;
  (* [alloc] mirrors the old-generation frontier in generational mode so
     region-based consumers (the verifier, stats) see one truth. *)
  t.alloc <- g.old_alloc;
  a

(* [old] asks for old-generation placement whatever the size (a
   policy-pretenured object); an object that can never fit the nursery
   goes there anyway. Either way it lands on the old-generation frontier
   and on [big_objects], for the next minor collection to scan once —
   which keeps static barrier elimination sound for it (an elided
   barrier's store happens between the object's allocation and the next
   gc-point, while it is on the list). *)
let allocate_gen t (g : gen_state) ~old size =
  if size <= g.nursery_cap && not old then begin
    if gen_nursery_free t g < size then
      (match t.collector with Some collect -> collect t ~needed:size | None -> ());
    if gen_nursery_free t g < size then
      Vm_error.(error (Heap_exhausted { needed = size; free = gen_nursery_free t g }));
    let a = g.nursery_alloc in
    g.nursery_alloc <- a + size;
    a
  end
  else begin
    let a = allocate_old t g size in
    g.big_objects <- a :: g.big_objects;
    a
  end

(* The flat-heap slow path: collect when from-space cannot fit the
   request; if it still cannot, the caller raises typed [Heap_exhausted]. *)
let ensure_space t needed =
  if heap_free t < needed then
    match t.collector with Some collect -> collect t ~needed | None -> ()

(* First-fit from the free list (filled by the non-moving mark-sweep
   core); the remainder of a larger block is returned to the list. *)
let take_free_list t size =
  let rec go acc = function
    | [] -> None
    | (a, sz) :: rest when sz >= size ->
        let rest =
          if sz > size then begin
            (* The unconsumed remainder gets a filler header immediately,
               so the linear heap parse (sweep cursor, object-start
               bitmap, verifier) stays total at every gc-point. *)
            Mem.set t.mem (a + size) (-(sz - size));
            (a + size, sz - size) :: rest
          end
          else rest
        in
        t.free_list <- List.rev_append acc rest;
        Some a
    | entry :: rest -> go (entry :: acc) rest
  in
  go [] t.free_list

(* Bump allocation in from-space; the free list is consulted first, and
   again after a collection refills it. Under the precise collector the
   free list is permanently empty, so the probe (and its list rebuild) is
   skipped entirely on that hot path. *)
let allocate_flat t size =
  let probe () = if t.free_list == [] then None else take_free_list t size in
  match probe () with
  | Some a -> a
  | None -> (
      ensure_space t size;
      match probe () with
      | Some a -> a
      | None ->
          if heap_free t < size then
            Vm_error.(error (Heap_exhausted { needed = size; free = heap_free t }));
          let a = t.alloc in
          t.alloc <- t.alloc + size;
          a)

let allocate t size =
  match t.gen with Some g -> allocate_gen t g ~old:false size | None -> allocate_flat t size

(** [(blocks, total free words, largest block)] of the free list: the
    fragmentation a non-moving collector leaves and a compacting one never
    has. *)
let free_list_stats t =
  List.fold_left
    (fun (n, total, largest) (_, s) -> (n + 1, total + s, max largest s))
    (0, 0, 0) t.free_list

(* --- profile-guided placement --------------------------------------- *)

(** Install a per-site placement (decision codes: 0 nursery, 1 pretenure).
    Purely a runtime switch: the image, its gc tables and the
    instruction stream are untouched, so program output and instruction
    counts are byte-identical with or without a placement. *)
let set_placement t ~source (decisions : int array) =
  let count code =
    Array.fold_left (fun n d -> if d = code then n + 1 else n) 0 decisions
  in
  Telemetry.Metrics.incr ~by:(count 1) c_pretenure_sites;
  t.placement <- Some { pc_decisions = decisions; pc_source = source }

(** Source and decision array of the installed placement, if any. *)
let placement_info t =
  match t.placement with
  | None -> None
  | Some pl -> Some (pl.pc_source, pl.pc_decisions)

(* The placement consult on the allocation path: one array load when a
   placement is installed, nothing otherwise. Placement is meaningful only
   in generational mode (flat mode has no nursery to steer away from), and
   oversized objects take the existing big-object path whatever the policy
   says. *)
let allocate_placed t site size =
  match (t.gen, t.placement) with
  | Some g, Some pl
    when site >= 0
         && site < Array.length pl.pc_decisions
         && size <= g.nursery_cap
         && Array.unsafe_get pl.pc_decisions site = 1 ->
      let a = allocate_gen t g ~old:true size in
      Telemetry.Metrics.incr ~by:size c_pretenured_words;
      a
  | _ -> allocate t size

let rt_alloc t ?(site = -1) tdid ~length =
  (* Incremental slice poll, strictly {e before} the new object exists:
     a slice here may run the final flip, whose root rescan must see every
     live object — the object about to be allocated is still held in no
     register or stack slot, so allocating it first and flipping after
     would let the sweep free it. Polling first means anything allocated
     at an earlier gc-point is either visible to the exact tables or
     genuinely dead, and the fresh object is born after any flip at this
     gc-point (beyond the captured sweep limit). *)
  (match t.inc_slice with Some f -> f t | None -> ());
  let entry = t.image.Image.layouts.Rt.Typedesc.sizes.(tdid) in
  let size = Rt.Typedesc.words entry ~length in
  let a = allocate_placed t site size in
  (* Zero the data words only; the header word(s) are written directly. *)
  let h = if entry > 0 then Rt.Typedesc.fixed_header_words else Rt.Typedesc.open_header_words in
  Mem.fill t.mem (a + h) (size - h) 0;
  Mem.set t.mem a tdid;
  if entry <= 0 then Mem.set t.mem (a + 1) length;
  t.alloc_count <- t.alloc_count + 1;
  t.alloc_words <- t.alloc_words + size;
  Telemetry.Metrics.incr c_allocs;
  Telemetry.Metrics.incr ~by:size c_alloc_words;
  (match t.prof with
  | Some p -> Profile.on_alloc p ~site ~addr:a ~words:size
  | None -> ());
  a

(* ------------------------------------------------------------------ *)
(* Runtime calls                                                       *)
(* ------------------------------------------------------------------ *)

exception Guest_error of string

let rt_nargs = function
  | Mir.Ir.Rt_alloc _ -> 1
  | Mir.Ir.Rt_alloc_open _ -> 2
  | Mir.Ir.Rt_gc_check -> 0
  | Mir.Ir.Rt_put_int -> 1
  | Mir.Ir.Rt_put_char -> 1
  | Mir.Ir.Rt_put_text -> 1
  | Mir.Ir.Rt_put_ln -> 0
  | Mir.Ir.Rt_halt -> 0
  | Mir.Ir.Rt_bounds_error -> 0
  | Mir.Ir.Rt_nil_error -> 0

let exec_rt t (rc : Mir.Ir.rt_call) =
  let arg i = read t (sp t + i) in
  (match rc with
  | Mir.Ir.Rt_alloc site -> t.regs.(Machine.Reg.ret) <- rt_alloc t ~site (arg 0) ~length:0
  | Mir.Ir.Rt_alloc_open site ->
      t.regs.(Machine.Reg.ret) <- rt_alloc t ~site (arg 0) ~length:(arg 1)
  | Mir.Ir.Rt_gc_check ->
      (* Loop-backedge gc-points (§5.3) are the non-allocating pre-emption
         opportunities of the incremental collector. *)
      (match t.inc_slice with Some f -> f t | None -> ())
  | Mir.Ir.Rt_put_int -> Buffer.add_string t.out (string_of_int (arg 0))
  | Mir.Ir.Rt_put_char -> Buffer.add_char t.out (Char.chr (arg 0 land 0xff))
  | Mir.Ir.Rt_put_text ->
      let p = arg 0 in
      if p = 0 then raise (Guest_error "PutText: NIL")
      else begin
        let len = read t (p + 1) in
        (* One range check for the whole payload, then a single unchecked
           append pass — the bounds-checked [read] used to run once per
           character. *)
        if len < 0 || p + 2 + len > Mem.length t.mem then
          oob_read (p + 2 + len);
        let mem = t.mem in
        for a = p + 2 to p + 2 + len - 1 do
          Buffer.add_char t.out (Char.chr (Mem.unsafe_get mem a land 0xff))
        done
      end
  | Mir.Ir.Rt_put_ln -> Buffer.add_char t.out '\n'
  | Mir.Ir.Rt_halt -> t.halted <- true
  | Mir.Ir.Rt_bounds_error -> raise (Guest_error "array index out of range")
  | Mir.Ir.Rt_nil_error -> raise (Guest_error "NIL dereference"));
  (* Pop the arguments; runtime calls push no return address. *)
  set_sp t (sp t + rt_nargs rc)

(* ------------------------------------------------------------------ *)
(* Main loop                                                           *)
(* ------------------------------------------------------------------ *)

let sentinel_ret = -1

(** Record a generational write barrier against the effective address of a
    just-stored heap slot. Shared by both execution engines; a no-op
    outside generational mode (the caller has already matched [t.gen]). *)
let wbar_record t (g : gen_state) a =
  g.barrier_execs <- g.barrier_execs + 1;
  (* Only a store into the old generation can create an old→young
     reference; the dirty byte dedups repeated stores to a slot. *)
  if a >= t.from_base && a < g.nursery_base then begin
    let d = a - t.image.Image.heap_base in
    if Bytes.get g.dirty d = '\000' then begin
      Bytes.set g.dirty d '\001';
      if g.remset_len = Array.length g.remset then begin
        let bigger = Array.make (2 * g.remset_len) 0 in
        Array.blit g.remset 0 bigger 0 g.remset_len;
        g.remset <- bigger
      end;
      g.remset.(g.remset_len) <- a;
      g.remset_len <- g.remset_len + 1;
      g.remset_inserts <- g.remset_inserts + 1
    end
  end

(* --- incremental marking primitives --------------------------------- *)

(** Queue a marked object for scanning. On overflow the object stays
    marked but unqueued and the spill flag is raised: mark termination
    then requires a linear rescan of the marked heap ([Gc.Incremental]),
    which terminates because marks only ever accumulate. *)
let inc_push (inc : inc_state) v =
  if inc.inc_gray_len >= Array.length inc.inc_gray then begin
    inc.inc_spilled <- true;
    inc.inc_spills <- inc.inc_spills + 1
  end
  else begin
    inc.inc_gray.(inc.inc_gray_len) <- v;
    inc.inc_gray_len <- inc.inc_gray_len + 1
  end

(** Shade a value gray: if it is a (tidy) pointer to an unmarked heap
    object, mark it and queue it. Values outside the heap (NIL, globals,
    static text) and already-marked objects are left alone. *)
let inc_shade t (inc : inc_state) v =
  if v >= t.from_base && v < t.alloc then begin
    let i = v - t.from_base in
    if not (Support.Bitset.mem inc.inc_marks i) then begin
      Support.Bitset.set inc.inc_marks i;
      inc.inc_marked_objects <- inc.inc_marked_objects + 1;
      inc_push inc v
    end
  end

(** The runtime half of the dual-purpose write barrier, shared by both
    execution engines. [Wbar] is emitted after a pointer-valued store
    against the stored slot's effective address, which serves two
    semantics off the same instruction:

    - {e generational} (SSB): record the slot in the remembered set if it
      may now hold an old→young reference;
    - {e incremental} (Dijkstra insertion barrier): the slot currently
      holds exactly the just-stored pointer, so shading [mem[a]] shades
      the new target — a black object can never come to point at an
      unshaded white object, which is the tri-color invariant the marking
      phase preserves.

    The two modes never compose (see [Driver.Compile]); outside both the
    barrier is two option tests. *)
let barrier_hit t a =
  (match t.gen with Some g -> wbar_record t g a | None -> ());
  match t.inc with
  | Some inc when inc.inc_phase = Inc_marking ->
      inc.inc_barrier_execs <- inc.inc_barrier_execs + 1;
      inc_shade t inc (read t a)
  | _ -> ()

let reset t =
  Array.fill t.regs 0 (Array.length t.regs) 0;
  set_sp t t.image.Image.stack_top;
  push t sentinel_ret;
  t.pc <- t.image.Image.procs.(t.image.Image.main_fid).Image.pi_entry;
  t.halted <- false;
  (* A fresh run starts with empty output; without this, repeated [run]s
     on one machine accumulate every previous run's output. *)
  Buffer.clear t.out

let step t =
  let insn = t.image.Image.code.(t.pc) in
  t.icount <- t.icount + 1;
  match insn with
  | I.Mov (d, s) ->
      store t d (eval t s);
      t.pc <- t.pc + 1
  | I.Lea (r, o) ->
      t.regs.(r) <- addr_of t o;
      t.pc <- t.pc + 1
  | I.Arith (op, d, a, b) ->
      store t d (apply_aop op (eval t a) (eval t b));
      t.pc <- t.pc + 1
  | I.Cbr (r, a, b, target) ->
      if I.relop_eval r (eval t a) (eval t b) then t.pc <- target else t.pc <- t.pc + 1
  | I.Jmp target -> t.pc <- target
  | I.Push o ->
      push t (eval t o);
      t.pc <- t.pc + 1
  | I.Call (I.Cproc fid) ->
      push t (t.pc + 1);
      t.pc <- t.image.Image.procs.(fid).Image.pi_entry
  | I.Call (I.Crt rc) ->
      exec_rt t rc;
      if not t.halted then t.pc <- t.pc + 1
  | I.Enter { frame_size; saves } ->
      push t (fp t);
      set_fp t (sp t);
      let f = fp t in
      if f - frame_size < t.image.Image.stack_base then stack_overflow ();
      (* Block fill of the frame, then the save slots; the old word-by-word
         zero loop and the [List.iteri] closure both cost on every call. *)
      Mem.fill t.mem (f - frame_size) frame_size 0;
      for i = 0 to Array.length saves - 1 do
        Mem.unsafe_set t.mem (f - 1 - i) t.regs.(Array.unsafe_get saves i)
      done;
      set_sp t (f - frame_size);
      t.pc <- t.pc + 1
  | I.Leave ->
      let f = fp t in
      (* Restore callee-saved registers from this procedure's save slots.
         The owning procedure comes from the per-instruction [code_fid]
         annotation — one array load, where a binary search used to run on
         every procedure return. *)
      let fid = t.image.Image.code_fid.(t.pc) in
      let saves = t.image.Image.procs.(fid).Image.pi_saves in
      for i = 0 to Array.length saves - 1 do
        let r, off = Array.unsafe_get saves i in
        t.regs.(r) <- read t (f + off)
      done;
      set_sp t f;
      set_fp t (read t f);
      set_sp t (sp t + 1);
      t.pc <- t.pc + 1
  | I.Ret n ->
      let ra = read t (sp t) in
      set_sp t (sp t + 1 + n);
      if ra = sentinel_ret then t.halted <- true else t.pc <- ra
  | I.Wbar o ->
      barrier_hit t (addr_of t o);
      t.pc <- t.pc + 1
  | I.Trap msg -> raise (Guest_error msg)

(** Shared run wrapper: reset, telemetry span, counter sync and the
    out-of-fuel check — everything around the dispatch itself, which each
    execution engine supplies as [loop t ~fuel] (the reference switch loop
    below, or {!Threaded}'s pre-translated closure dispatch). Keeping one
    wrapper guarantees both engines run over identical allocation,
    collection and generational state. *)
let run_with ~loop ?(fuel = max_int) t =
  reset t;
  let icount0 = t.icount in
  let bar0, rs0 =
    match t.gen with
    | Some g -> (g.barrier_execs, g.remset_inserts)
    | None -> (0, 0)
  in
  let spills0 = match t.inc with Some inc -> inc.inc_spills | None -> 0 in
  Telemetry.Trace.begin_span ~cat:"vm" "vm.run";
  Fun.protect
    ~finally:(fun () ->
      Telemetry.Metrics.incr ~by:(t.icount - icount0) c_instructions;
      (match t.gen with
      | Some g ->
          Telemetry.Metrics.incr ~by:(g.barrier_execs - bar0) c_barriers;
          Telemetry.Metrics.incr ~by:(g.remset_inserts - rs0) c_remset_inserts
      | None -> ());
      (* Mark-stack spills are counted here, not on the push path; the
         barrier pushes between pauses, so a per-pause count would miss
         the spills after a run's last pause. *)
      (match t.inc with
      | Some inc -> Telemetry.Metrics.incr ~by:(inc.inc_spills - spills0) c_mark_spills
      | None -> ());
      Telemetry.Trace.end_span
        ~args:[ ("instructions", Telemetry.Json.Int (t.icount - icount0)) ]
        ())
    (fun () -> loop t ~fuel);
  if not t.halted then Vm_error.(error (Out_of_fuel { instructions = fuel }))

let switch_loop t ~fuel =
  let budget = ref fuel in
  while (not t.halted) && !budget > 0 do
    step t;
    decr budget
  done

let run ?fuel t = run_with ~loop:switch_loop ?fuel t

let output t = Buffer.contents t.out
