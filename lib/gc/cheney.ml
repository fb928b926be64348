(** The precise, fully compacting semispace collector, and the phase
    driver every copying collection runs.

    Every live object moves on every collection — the strongest exercise of
    the tables: tidy pointers in globals, stack slots and registers are
    forwarded; derived values are un-derived before the copy and re-derived
    after (paper §3). Derived values are never {e followed}: the dead-base
    rule guarantees any object reachable through a derived value is also
    reachable through one of its bases.

    A full collection ({!collect}) and a minor one ({!Nursery.minor}) are
    two instances of one pipeline, {!run}, that differ only in their
    regions, their extra roots and how they reopen the heap. Each is
    reported to the telemetry layer as a [gc.collect] or [gc.minor] span
    with four nested phase spans — [gc.stackwalk], [gc.underive],
    [gc.copy] (with a further [gc.forward_roots] sub-span) and
    [gc.rederive] — whose histograms sum to the pause. With telemetry
    disabled only the machine's [gc_stats] fields are updated. *)

module RM = Gcmaps.Rawmaps
module T = Telemetry

let now_ns = T.Control.now_ns

(* Telemetry handles (stable across Metrics.reset). *)
let c_collections = T.Metrics.counter "gc.collections"
let c_major = T.Metrics.counter "gc.major_collections"
let c_objects = T.Metrics.counter "gc.objects_forwarded"
let c_copy_words = T.Metrics.counter "gc.copy_words"
let h_pause = T.Metrics.histogram "gc.pause_ns"
let h_stackwalk = T.Metrics.histogram "gc.stackwalk_ns"
let h_underive = T.Metrics.histogram "gc.underive_ns"
let h_copy = T.Metrics.histogram "gc.copy_ns"
let h_rederive = T.Metrics.histogram "gc.rederive_ns"
let h_roots = T.Metrics.histogram "gc.forward_roots_ns"
let h_words = T.Metrics.histogram "gc.words_copied"
let h_objects = T.Metrics.histogram "gc.objects_copied"
let h_frames = T.Metrics.histogram "gc.frames"
let h_major_pause = T.Metrics.histogram "gc.major_pause_ns"
let h_major_words = T.Metrics.histogram "gc.major_words"
let h_is_minor = T.Metrics.histogram "gc.is_minor"
let c_minor = T.Metrics.counter "gc.minor_collections"
let h_minor_pause = T.Metrics.histogram "gc.minor_pause_ns"
let h_minor_words = T.Metrics.histogram "gc.minor_words"

(* The copier is parametric in its source and destination regions so the
   same forwarding and scanning machinery serves both a full collection
   (source = from-space, destination = to-space) and a minor one (source =
   the nursery, destination = the old-generation frontier within the same
   semispace — see {!Nursery}). It caches what the evacuation loop reads
   per object: the store, the image's flat layout table and the profiler.
   Evacuated objects are counted in [copied]; the collector adds the
   count to the machine's counters once per collection. *)
type copier = {
  st : Vm.Interp.t;
  mem : Vm.Mem.t; (* [st.mem] *)
  sizes : int array; (* the image's layout table *)
  offsets : int array array;
  prof : Profile.t option;
  src_lo : int; (* objects in [src_lo, src_hi) are evacuated *)
  src_hi : int;
  dst_lo : int; (* evacuation region bounds *)
  dst_hi : int;
  mutable to_alloc : int;
  mutable copied : int; (* objects evacuated *)
}

(* Both regions are checked against the store once, here: every object
   is then checked against its regions ([checked_size]), so the copy and
   scan loops below index the store unchecked. *)
let make_copier (st : Vm.Interp.t) ~src_lo ~src_hi ~dst_lo ~dst_hi =
  let mem = st.Vm.Interp.mem in
  let inside lo hi = 0 <= lo && lo <= hi && hi <= Vm.Mem.length mem in
  if not (inside src_lo src_hi && inside dst_lo dst_hi) then
    Vm.Vm_error.fail "gc: copy regions [%d, %d) -> [%d, %d) leave the %d-word store" src_lo
      src_hi dst_lo dst_hi (Vm.Mem.length mem);
  let l = st.Vm.Interp.image.Vm.Image.layouts in
  {
    st;
    mem;
    sizes = l.Rt.Typedesc.sizes;
    offsets = l.Rt.Typedesc.offsets;
    prof = st.Vm.Interp.prof;
    src_lo;
    src_hi;
    dst_lo;
    dst_hi;
    to_alloc = dst_lo;
    copied = 0;
  }

let bad_root ?(loc = "from-space word") c v reason =
  Vm.Vm_error.(
    error (Bad_root { loc = Printf.sprintf "%s %d" loc v; value = Vm.Mem.get c.mem v; reason }))

(* Size of the object at [v] whose header is [header], checked against
   what a corrupt or untidy pointer can claim: the header must be a type
   descriptor, an open array's length must not be negative, and the
   object must end by [hi] (for an open array, a length past [hi] is
   tested first, so the size product cannot overflow unnoticed). *)
let checked_size ?loc c v header ~hi ~region =
  if header < 0 || header >= Array.length c.sizes then
    bad_root ?loc c v (Printf.sprintf "header %d is not a type descriptor (untidy root?)" header);
  let entry = Array.unsafe_get c.sizes header in
  let length = if entry > 0 then 0 else Vm.Mem.get c.mem (v + 1) in
  if length < 0 then bad_root ?loc c v (Printf.sprintf "open array has negative length %d" length);
  let size = Rt.Typedesc.words entry ~length in
  if size > hi - v || (entry < 0 && length > hi - v) then
    bad_root ?loc c v (Printf.sprintf "object of %d words overruns %s" size region);
  size

(* Forward's four checks: a size checked against the source region, and
   room for it in the destination. *)
let evacuation_size c v header =
  let size = checked_size c v header ~hi:c.src_hi ~region:"its source region" in
  if size > c.dst_hi - c.to_alloc then
    bad_root c v (Printf.sprintf "object of %d words overruns its destination region" size);
  size

let[@inline] in_from c v = v >= c.src_lo && v < c.src_hi

(* A header inside [dst_lo, to_alloc) is a forwarding pointer: forwarding
   pointers are the only header-position values that can land there. *)
let[@inline] forwarded c header = header >= c.dst_lo && header < c.to_alloc

(* Evacuate the from-space object at [v], or return its forwarding
   pointer. Inlined into the Cheney loop ([scan_object]); every other
   caller goes through the out-of-line [evacuate_call]. *)
let[@inline] evacuate c v =
  let mem = c.mem in
  let header = Vm.Mem.unsafe_get mem v in
  if forwarded c header then header
  else begin
    (* A fixed-size object that fits both regions passes all four checks
       here; anything else takes [evacuation_size]'s full path. *)
    let entry =
      if header >= 0 && header < Array.length c.sizes then Array.unsafe_get c.sizes header
      else 0
    in
    let dst = c.to_alloc in
    let size =
      if entry > 0 && entry <= c.src_hi - v && entry <= c.dst_hi - dst then entry
      else evacuation_size c v header
    in
    (* Both ranges were just checked against regions inside the store. *)
    Vm.Mem.unsafe_set mem dst header;
    if size < 32 then
      for i = 1 to size - 1 do
        Vm.Mem.unsafe_set mem (dst + i) (Vm.Mem.unsafe_get mem (v + i))
      done
    else Vm.Mem.blit mem ~src:v ~dst ~len:size;
    c.to_alloc <- dst + size;
    Vm.Mem.unsafe_set mem v dst (* forwarding pointer *);
    c.copied <- c.copied + 1;
    (match c.prof with Some p -> Profile.on_copy p ~src:v ~dst ~words:size | None -> ());
    dst
  end

let evacuate_call c v = evacuate c v

(** Forward a tidy pointer: copy its object to to-space if not already
    copied; pointers outside from-space (NIL, globals, static text, stack
    addresses) are left alone. The range test inlines into every caller;
    the evacuation stays out of line. *)
let[@inline] forward c v = if in_from c v then evacuate_call c v else v

(* Scan one to-space object through the layout table, forwarding each
   field with [evacuate] inlined. Its header passed [evacuate]'s checks on
   the way in, so nothing is checked again. *)
let[@inline] scan_object c addr =
  let mem = c.mem in
  let d = Vm.Mem.unsafe_get mem addr in
  let entry = Array.unsafe_get c.sizes d and offsets = Array.unsafe_get c.offsets d in
  let nofs = Array.length offsets in
  if entry > 0 then begin
    for k = 0 to nofs - 1 do
      let a = addr + Array.unsafe_get offsets k in
      let v = Vm.Mem.unsafe_get mem a in
      if in_from c v then Vm.Mem.unsafe_set mem a (evacuate c v)
    done;
    addr + entry
  end
  else begin
    let length = Vm.Mem.unsafe_get mem (addr + 1) in
    if nofs > 0 then
      for i = 0 to length - 1 do
        let base = addr + Rt.Typedesc.open_header_words - (i * entry) in
        for k = 0 to nofs - 1 do
          let a = base + Array.unsafe_get offsets k in
          let v = Vm.Mem.unsafe_get mem a in
          if in_from c v then Vm.Mem.unsafe_set mem a (evacuate c v)
        done
      done;
    addr + Rt.Typedesc.words entry ~length
  end

(** The Cheney loop: scan the destination region from [lo] until the scan
    pointer catches up with [to_alloc]. *)
let scan_from c lo =
  let scan = ref lo in
  while !scan < c.to_alloc do
    scan := scan_object c !scan
  done

(** Scan an object a minor collection visits in place — pretenured or
    big, ending below the destination region. Its header never passed
    through [evacuate], so it is checked here first: a corrupt header is
    a [Bad_root], not an out-of-bounds scan. *)
let scan_placed c addr =
  ignore
    (checked_size ~loc:"placed object at word" c addr (Vm.Mem.get c.mem addr)
       ~hi:c.dst_lo ~region:"the old generation");
  ignore (scan_object c addr)

(* Forward the tidy roots of one frame: stack-pointer table entries and
   register-pointer table entries (through the reconstruction map). *)
let forward_frame_roots c (fr : Stackwalk.frame) =
  List.iter
    (fun l ->
      let v = Stackwalk.read c.st fr l in
      Stackwalk.write c.st fr l (forward c v))
    fr.Stackwalk.fr_gcpoint.RM.stack_ptrs;
  List.iter
    (fun r ->
      let l = Gcmaps.Loc.Lreg r in
      let v = Stackwalk.read c.st fr l in
      Stackwalk.write c.st fr l (forward c v))
    fr.Stackwalk.fr_gcpoint.RM.reg_ptrs

(** The phase pipeline of every copying collection, full or minor. The
    kind supplies its [regions] (the copier, built at the start of the
    copy phase), its [extra_roots] beyond the globals and the frames, and
    its [reopen] step once the destination is scanned. The four phase
    windows tile the pause: stack walk from its start, then un-derive
    (with the optional pre-pass), copy (with the snapshot for the
    post-pass and the kind's reopen), and re-derive to its end. The
    forward-roots window inside the copy covers only the table-driven
    stack and register roots. *)
let run (st : Vm.Interp.t) ~minor ~regions ~extra_roots ~reopen =
  let t_start = now_ns () in
  let gcs = st.Vm.Interp.gc in
  gcs.Vm.Interp.collections <- gcs.Vm.Interp.collections + 1;
  T.Metrics.incr c_collections;
  if minor then begin
    gcs.Vm.Interp.minor_collections <- gcs.Vm.Interp.minor_collections + 1;
    T.Metrics.incr c_minor
  end;
  (match st.Vm.Interp.prof with Some p -> Profile.begin_collection p ~minor | None -> ());
  T.Trace.begin_span ~cat:"gc"
    ~args:[ ("collection", T.Json.Int gcs.Vm.Interp.collections) ]
    (if minor then "gc.minor" else "gc.collect");
  (* --- stack tracing: locate tables, walk frames. --- *)
  T.Trace.begin_span ~cat:"gc" "gc.stackwalk";
  let frames = Stackwalk.walk st in
  let nframes = List.length frames in
  gcs.Vm.Interp.frames_traced <- gcs.Vm.Interp.frames_traced + nframes;
  let t_walk = now_ns () in
  T.Trace.end_span ~args:[ ("frames", T.Json.Int nframes) ] ();
  (* --- un-derive: recover E for every live derived value. --- *)
  T.Trace.begin_span ~cat:"gc" "gc.underive";
  (* Optional pre-pass: check the heap and the roots the tables just
     produced before anything is moved, so a violation is attributed to
     the mutator (or the tables), not to this collection. *)
  let phase name = if minor then "minor-" ^ name else name in
  if Verify.pre_enabled () then ignore (Verify.check st ~phase:(phase "pre") ~frames ());
  let adjusted = Derived_update.adjust_all st frames in
  let t_underive = now_ns () in
  T.Trace.end_span ();
  (* --- copy: globals, frame roots, the kind's roots, scan, reopen. --- *)
  T.Trace.begin_span ~cat:"gc" "gc.copy";
  (* Targets hold exactly E between un-derive and copy: snapshot it so the
     post-pass can re-check the §3 invariant over the moved values. *)
  let derived_snap =
    if Verify.post_enabled () then Some (Verify.snapshot_derived st adjusted) else None
  in
  let c = regions () in
  List.iter
    (fun a -> Vm.Mem.set c.mem a (forward c (Vm.Mem.get c.mem a)))
    st.Vm.Interp.image.Vm.Image.global_roots;
  (* Stack and register roots (trace time, per the paper's accounting). *)
  T.Trace.begin_span ~cat:"gc" "gc.forward_roots";
  let t_roots0 = now_ns () in
  List.iter (forward_frame_roots c) frames;
  let t_roots1 = now_ns () in
  T.Trace.end_span ();
  extra_roots c;
  scan_from c c.dst_lo;
  gcs.Vm.Interp.objects_copied <- gcs.Vm.Interp.objects_copied + c.copied;
  T.Metrics.incr ~by:c.copied c_objects;
  reopen c;
  let t_copy = now_ns () in
  T.Trace.end_span ();
  (* --- re-derive from the moved bases. --- *)
  T.Trace.begin_span ~cat:"gc" "gc.rederive";
  Derived_update.rederive_all st adjusted;
  T.Trace.end_span ();
  let words = c.to_alloc - c.dst_lo in
  gcs.Vm.Interp.words_copied <- gcs.Vm.Interp.words_copied + words;
  T.Metrics.incr ~by:words c_copy_words;
  T.Trace.end_span
    ~args:[ ((if minor then "words_promoted" else "words_copied"), T.Json.Int words) ]
    ();
  let t_end = now_ns () in
  let open Int64 in
  let pause = sub t_end t_start and copy = sub t_copy t_underive in
  gcs.Vm.Interp.total_gc_ns <- add gcs.Vm.Interp.total_gc_ns pause;
  if T.Control.on () then begin
    T.Metrics.observe_ns h_pause pause;
    T.Metrics.observe_ns h_stackwalk (sub t_walk t_start);
    T.Metrics.observe_ns h_underive (sub t_underive t_walk);
    T.Metrics.observe_ns h_copy copy;
    T.Metrics.observe_ns h_roots (sub t_roots1 t_roots0);
    T.Metrics.observe_ns h_rederive (sub t_end t_copy);
    T.Metrics.observe h_words (float_of_int words);
    T.Metrics.observe h_objects (float_of_int c.copied);
    T.Metrics.observe h_frames (float_of_int nframes);
    if minor then begin
      T.Metrics.observe_ns h_minor_pause pause;
      T.Metrics.observe h_minor_words (float_of_int words)
    end
    else begin
      T.Metrics.incr c_major;
      T.Metrics.observe_ns h_major_pause pause;
      T.Metrics.observe h_major_words (float_of_int words)
    end;
    T.Metrics.observe h_is_minor (if minor then 1.0 else 0.0)
  end;
  (* Lifetime accounting: whatever is still keyed in the evacuated source
     region was not forwarded, i.e. it died in this collection. *)
  (match st.Vm.Interp.prof with
  | Some p -> Profile.end_collection p ~src_lo:c.src_lo ~src_hi:c.src_hi
  | None -> ());
  (* Post-pass, after the reopen so it sees exactly the heap the mutator
     is about to resume on. *)
  match derived_snap with
  | Some snap -> ignore (Verify.check st ~phase:(phase "post") ~frames ~derived:snap ())
  | None -> ()

(** A full collection: from-space into to-space, then the flip. *)
let collect (st : Vm.Interp.t) ~needed:_ =
  let semi = st.Vm.Interp.semi_words in
  run st ~minor:false
    ~regions:(fun () ->
      make_copier st ~src_lo:st.Vm.Interp.from_base
        ~src_hi:(st.Vm.Interp.from_base + semi)
        ~dst_lo:st.Vm.Interp.to_base ~dst_hi:(st.Vm.Interp.to_base + semi))
    ~extra_roots:ignore
    ~reopen:(fun c ->
      let old_from = st.Vm.Interp.from_base in
      st.Vm.Interp.from_base <- st.Vm.Interp.to_base;
      st.Vm.Interp.to_base <- old_from;
      st.Vm.Interp.alloc <- c.to_alloc;
      (* In generational mode the survivors become the new (empty-nursery)
         old generation and the remembered set is void. *)
      Vm.Interp.gen_reset_after_full st)

let install (st : Vm.Interp.t) = st.Vm.Interp.collector <- Some collect
