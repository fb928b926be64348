(** Generational collection layered on the unchanged gc-point tables.

    The semispace machinery of {!Cheney} already proves that the
    compiler-emitted tables can move every live object; this module shows
    the same tables support a collector the paper never built. From-space
    is split into an old generation growing up from the base and a
    bump-allocated nursery at the top (see {!Vm.Interp.gen_state}). A
    minor collection evacuates only the nursery, promoting survivors onto
    the old-generation frontier of the {e same} semispace — no flip — with
    roots drawn from exactly the same sources as a full collection
    (globals, the gc-point tables' stack and register entries, derived
    values through the un-derive/re-derive protocol of §3) plus two
    generational extras: the remembered set filled by the compiler-emitted
    [Wbar] barriers, and every object placed in the old generation since
    the previous minor (big and pretenured objects, the young part of each
    pool). Each placed object is scanned by one minor only: that covers
    the stores whose barriers static elimination dropped, all of which
    happen before the object's first gc-point, and every later store into
    it runs its barrier, so the remembered set covers it from then on.

    When the nursery cannot satisfy a request, or the old generation lacks
    promotion headroom, the ordinary full {!Cheney.collect} runs instead —
    the tables serve both collectors without a byte of difference. *)

module RM = Gcmaps.Rawmaps
module T = Telemetry

let now_ns = T.Control.now_ns

(* Shared per-collection histograms (same names as {!Cheney}, so the
   per-collection tables in [mmrun --gc-stats] stay parallel arrays), plus
   the minor-specific series. *)
let c_collections = T.Metrics.counter "gc.collections"
let c_minor = T.Metrics.counter "gc.minor_collections"
let c_copy_words = T.Metrics.counter "gc.copy_words"
let c_objects = T.Metrics.counter "gc.objects_forwarded"
let h_pause = T.Metrics.histogram "gc.pause_ns"
let h_stackwalk = T.Metrics.histogram "gc.stackwalk_ns"
let h_underive = T.Metrics.histogram "gc.underive_ns"
let h_copy = T.Metrics.histogram "gc.copy_ns"
let h_rederive = T.Metrics.histogram "gc.rederive_ns"
let h_roots = T.Metrics.histogram "gc.forward_roots_ns"
let h_words = T.Metrics.histogram "gc.words_copied"
let h_objects = T.Metrics.histogram "gc.objects_copied"
let h_frames = T.Metrics.histogram "gc.frames"
let h_minor_pause = T.Metrics.histogram "gc.minor_pause_ns"
let h_minor_words = T.Metrics.histogram "gc.minor_words"
let h_is_minor = T.Metrics.histogram "gc.is_minor"
let h_remset = T.Metrics.histogram "gc.remset_roots"
let c_emergency = T.Metrics.counter "gc_pressure.emergency_full"

(** Default nursery: a quarter semispace, but never less than 300 words —
    on tiny heaps the nursery degenerates to the whole semispace and every
    minor becomes a full collection, which is still correct. *)
let default_nursery_words semi = min semi (max 300 (semi / 4))

(** One minor collection: evacuate [nursery_base, nursery_alloc) onto the
    old-generation frontier. The caller has checked promotion headroom.

    The four phase windows (stack walk, un-derive, copy, re-derive) tile
    the whole pause, so their histograms sum to it; the forward-roots
    window inside the copy covers only the table-driven stack and register
    roots, as in {!Cheney.collect}. *)
let minor (st : Vm.Interp.t) (g : Vm.Interp.gen_state) =
  let t_start = now_ns () in
  let gcs = st.Vm.Interp.gc in
  gcs.Vm.Interp.collections <- gcs.Vm.Interp.collections + 1;
  gcs.Vm.Interp.minor_collections <- gcs.Vm.Interp.minor_collections + 1;
  T.Metrics.incr c_collections;
  T.Metrics.incr c_minor;
  (match st.Vm.Interp.prof with
  | Some p -> Profile.begin_collection p ~minor:true
  | None -> ());
  T.Trace.begin_span ~cat:"gc"
    ~args:[ ("collection", T.Json.Int gcs.Vm.Interp.collections) ]
    "gc.minor";
  (* --- stack tracing: same tables, same walk as a full collection. --- *)
  T.Trace.begin_span ~cat:"gc" "gc.stackwalk";
  let frames = Stackwalk.walk st in
  gcs.Vm.Interp.frames_traced <- gcs.Vm.Interp.frames_traced + List.length frames;
  let t_walk1 = now_ns () in
  T.Trace.end_span ~args:[ ("frames", T.Json.Int (List.length frames)) ] ();
  if Verify.pre_enabled () then ignore (Verify.check st ~phase:"minor-pre" ~frames ());
  (* --- un-derive (§3): identical protocol; bases move like any root. --- *)
  T.Trace.begin_span ~cat:"gc" "gc.underive";
  let adjusted = Derived_update.adjust_all st frames in
  let t_under1 = now_ns () in
  T.Trace.end_span ();
  let derived_snap =
    if Verify.post_enabled () then Some (Verify.snapshot_derived st adjusted) else None
  in
  (* --- copy phase: nursery → old frontier, no flip. --- *)
  T.Trace.begin_span ~cat:"gc" "gc.copy";
  let c =
    Cheney.make_copier st ~src_lo:g.Vm.Interp.nursery_base ~src_hi:g.Vm.Interp.nursery_alloc
      ~dst_lo:g.Vm.Interp.old_alloc ~dst_hi:g.Vm.Interp.nursery_base
  in
  let mem = st.Vm.Interp.mem in
  (* Global roots. *)
  List.iter
    (fun a -> Vm.Mem.set mem a (Cheney.forward c (Vm.Mem.get mem a)))
    st.Vm.Interp.image.Vm.Image.global_roots;
  (* Stack and register roots (trace time, per the paper's accounting). *)
  T.Trace.begin_span ~cat:"gc" "gc.forward_roots";
  let t_roots0 = now_ns () in
  List.iter (Cheney.forward_frame_roots c) frames;
  let t_roots1 = now_ns () in
  T.Trace.end_span ();
  (* Generational roots: old-generation slots recorded by the write
     barriers, and every object placed in the old generation since the
     last minor — big and pretenured objects, and the young part of each
     pool. A statically elided barrier may have stored a nursery pointer
     into such an object before this gc-point; once scanned here, every
     later store into it runs its barrier, so each is scanned once. *)
  Remset.iter (fun a -> Vm.Mem.set mem a (Cheney.forward c (Vm.Mem.get mem a))) g;
  List.iter
    (fun addr -> ignore (Cheney.scan_placed c addr ~hi:c.Cheney.dst_lo))
    g.Vm.Interp.big_objects;
  List.iter
    (fun (lo, hi) ->
      let a = ref lo in
      while !a < hi do
        a := Cheney.scan_placed c !a ~hi
      done)
    (Vm.Interp.pool_young_ranges st);
  (* Cheney scan of the promotion region. *)
  Cheney.scan_from c c.Cheney.dst_lo;
  gcs.Vm.Interp.objects_copied <- gcs.Vm.Interp.objects_copied + c.Cheney.copied;
  T.Metrics.incr ~by:c.Cheney.copied c_objects;
  (* Reopen the nursery: it is empty, so no old→young reference remains,
     the remembered set is stale and nothing placed so far is young. *)
  let remset_roots = Remset.length g in
  Remset.clear st g;
  Vm.Interp.gen_placed_scanned st g;
  g.Vm.Interp.old_alloc <- c.Cheney.to_alloc;
  g.Vm.Interp.nursery_alloc <- g.Vm.Interp.nursery_base;
  st.Vm.Interp.alloc <- g.Vm.Interp.old_alloc;
  let t_copy1 = now_ns () in
  T.Trace.end_span ();
  (* --- re-derive. --- *)
  T.Trace.begin_span ~cat:"gc" "gc.rederive";
  Derived_update.rederive_all st adjusted;
  T.Trace.end_span ();
  let words = c.Cheney.to_alloc - c.Cheney.dst_lo in
  gcs.Vm.Interp.words_copied <- gcs.Vm.Interp.words_copied + words;
  T.Metrics.incr ~by:words c_copy_words;
  T.Trace.end_span ~args:[ ("words_promoted", T.Json.Int words) ] ();
  let t_end = now_ns () in
  let open Int64 in
  gcs.Vm.Interp.copy_ns <- add gcs.Vm.Interp.copy_ns (sub t_copy1 t_under1);
  gcs.Vm.Interp.total_gc_ns <- add gcs.Vm.Interp.total_gc_ns (sub t_end t_start);
  gcs.Vm.Interp.trace_ns <-
    add gcs.Vm.Interp.trace_ns
      (add
         (add (sub t_under1 t_start) (sub t_roots1 t_roots0))
         (sub t_end t_copy1));
  if T.Control.on () then begin
    T.Metrics.observe_ns h_pause (sub t_end t_start);
    T.Metrics.observe_ns h_stackwalk (sub t_walk1 t_start);
    T.Metrics.observe_ns h_underive (sub t_under1 t_walk1);
    T.Metrics.observe_ns h_copy (sub t_copy1 t_under1);
    T.Metrics.observe_ns h_roots (sub t_roots1 t_roots0);
    T.Metrics.observe_ns h_rederive (sub t_end t_copy1);
    T.Metrics.observe h_words (float_of_int words);
    T.Metrics.observe h_objects (float_of_int c.Cheney.copied);
    T.Metrics.observe h_frames (float_of_int (List.length frames));
    T.Metrics.observe_ns h_minor_pause (sub t_end t_start);
    T.Metrics.observe h_minor_words (float_of_int words);
    T.Metrics.observe h_is_minor 1.0;
    T.Metrics.observe h_remset (float_of_int remset_roots)
  end;
  (* Lifetime accounting over the evacuated nursery range (captured in the
     copier before the nursery was reset): survivors were re-keyed to the
     old generation by [Cheney.forward]; the rest died young. *)
  (match st.Vm.Interp.prof with
  | Some p ->
      Profile.end_collection p ~src_lo:c.Cheney.src_lo ~src_hi:c.Cheney.src_hi;
      if Profile.census_due p then Census.take st p;
      (* Online adaptive placement: once the configured number of minor
         collections has fed the side table, derive the same decisions the
         offline profile→policy pipeline would (same classifier, same
         thresholds) and install them for the rest of the run. *)
      if
        st.Vm.Interp.adaptive_after > 0
        && st.Vm.Interp.placement = None
        && p.Profile.minor_collections >= st.Vm.Interp.adaptive_after
      then
        Vm.Interp.set_placement st ~source:"adaptive"
          (Policy.decision_codes_from_stats p)
  | None -> ());
  match derived_snap with
  | Some snap -> ignore (Verify.check st ~phase:"minor-post" ~frames ~derived:snap ())
  | None -> ()

(** The generational collection policy: a minor collection whenever the
    nursery's survivors are guaranteed to fit the old generation's
    headroom, the ordinary full compaction otherwise (or when the minor
    did not recover enough). *)
(* A full collection forced by promotion failure (no headroom for the
   nursery's survivors, or a minor that did not recover enough) — the
   escalation rung the Gc_pressure group counts as an emergency. *)
let emergency (st : Vm.Interp.t) ~needed =
  st.Vm.Interp.gc.Vm.Interp.emergency_full <-
    st.Vm.Interp.gc.Vm.Interp.emergency_full + 1;
  T.Metrics.incr c_emergency;
  Cheney.collect st ~needed

let collect (st : Vm.Interp.t) ~needed =
  match st.Vm.Interp.gen with
  | None -> Cheney.collect st ~needed
  | Some g ->
      let used = g.Vm.Interp.nursery_alloc - g.Vm.Interp.nursery_base in
      let headroom = g.Vm.Interp.nursery_base - g.Vm.Interp.old_alloc in
      (* An old-generation request (big object, policy pretenure, pool
         chunk) can only be helped by a full compaction: a minor promotes
         into the very region that is short of room. *)
      if g.Vm.Interp.old_request || needed > g.Vm.Interp.nursery_cap then
        Cheney.collect st ~needed
      else if headroom < used then emergency st ~needed
      else begin
        minor st g;
        if Vm.Interp.gen_nursery_free st g < needed then emergency st ~needed
      end

let install ?nursery_words (st : Vm.Interp.t) =
  let semi = st.Vm.Interp.from_words in
  let words =
    match nursery_words with Some w -> w | None -> default_nursery_words semi
  in
  ignore (Vm.Interp.gen_init st ~nursery_words:words);
  st.Vm.Interp.collector <- Some collect
