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

module T = Telemetry

let h_remset = T.Metrics.histogram "gc.remset_roots"
let c_emergency = T.Metrics.counter "gc_pressure.emergency_full"

(** Default nursery: a quarter semispace, but never less than 300 words —
    on tiny heaps the nursery degenerates to the whole semispace and every
    minor becomes a full collection, which is still correct. *)
let default_nursery_words semi = min semi (max 300 (semi / 4))

(** One minor collection: {!Cheney.run} evacuating [nursery_base,
    nursery_alloc) onto the old-generation frontier, with no flip. The
    caller has checked promotion headroom. *)
let minor (st : Vm.Interp.t) (g : Vm.Interp.gen_state) =
  Cheney.run st ~minor:true
    ~regions:(fun () ->
      Cheney.make_copier st ~src_lo:g.Vm.Interp.nursery_base ~src_hi:g.Vm.Interp.nursery_alloc
        ~dst_lo:g.Vm.Interp.old_alloc ~dst_hi:g.Vm.Interp.nursery_base)
    ~extra_roots:(fun c ->
      (* Old-generation slots recorded by the write barriers, and every
         object placed in the old generation since the last minor — big
         and pretenured objects, and the young part of each pool. A
         statically elided barrier may have stored a nursery pointer into
         such an object before this gc-point; once scanned here, every
         later store into it runs its barrier, so each is scanned once. *)
      let mem = c.Cheney.mem in
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
        (Vm.Interp.pool_young_ranges st))
    ~reopen:(fun c ->
      (* The nursery is empty, so no old→young reference remains, the
         remembered set is stale and nothing placed so far is young. *)
      T.Metrics.observe h_remset (float_of_int (Remset.length g));
      Remset.clear st g;
      Vm.Interp.gen_placed_scanned st g;
      g.Vm.Interp.old_alloc <- c.Cheney.to_alloc;
      g.Vm.Interp.nursery_alloc <- g.Vm.Interp.nursery_base;
      st.Vm.Interp.alloc <- g.Vm.Interp.old_alloc)

(* A full collection forced by promotion failure (no headroom for the
   nursery's survivors, or a minor that did not recover enough) — the
   escalation rung the Gc_pressure group counts as an emergency. *)
let emergency (st : Vm.Interp.t) ~needed =
  st.Vm.Interp.gc.Vm.Interp.emergency_full <-
    st.Vm.Interp.gc.Vm.Interp.emergency_full + 1;
  T.Metrics.incr c_emergency;
  Cheney.collect st ~needed

(** The generational collection policy: a minor collection whenever the
    nursery's survivors are guaranteed to fit the old generation's
    headroom, the ordinary full compaction otherwise (or when the minor
    did not recover enough). *)
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
