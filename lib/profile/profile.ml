(** Allocation-site profiling: per-site allocation counts and object
    lifetime (survival) attribution across copying collections.

    The profiler is entirely passive. Site ids are assigned at MIR lowering
    and ride inside the allocating runtime calls; the machine attributes
    each runtime allocation to its site through {!on_alloc}. Survival data
    piggybacks on the collector's copy path: every object evacuated by the
    Cheney [forward] routine is re-keyed from its old address to its new one
    ({!on_copy}), and whatever is still keyed inside the evacuated source
    range when the collection finishes died there ({!end_collection}). The
    side table is an [int array] indexed by heap address — exact, because
    the runtime hands us every allocation and every copy, and addresses
    are unique within a space at any instant. Every event costs a constant
    and allocates nothing; a collection's sweep costs the evacuated range.

    Nothing here is gated on the telemetry master switch: a profiler is
    either attached to the machine (every event recorded) or absent (every
    hook is a [None] match on the hot path). The document it emits
    ({!to_json}) holds only these counts, so two runs of one image write
    the same bytes; pause times are [--gc-stats]'s. *)

(** A static allocation site, as assigned at lowering (a mirror of
    [Mir.Ir.alloc_site], kept separate so this library sits below the
    compiler and VM in the dependency order). *)
type site = {
  s_id : int;
  s_proc : string; (* enclosing procedure *)
  s_line : int;
  s_col : int;
  s_tdesc : int; (* type descriptor allocated here *)
  s_open : bool; (* open-array site *)
}

type site_stats = {
  mutable st_allocs : int; (* objects allocated here *)
  mutable st_alloc_words : int; (* words allocated here *)
  mutable st_minor_survivals : int; (* objects copied out of a nursery *)
  mutable st_minor_words : int; (* words promoted at minor collections *)
  mutable st_full_survivals : int; (* objects copied at full collections *)
  mutable st_full_words : int; (* words copied at full collections *)
  mutable st_dead_objects : int; (* objects reclaimed *)
  mutable st_dead_words : int; (* words reclaimed *)
}

type t = {
  sites : site array; (* index = site id *)
  stats : site_stats array; (* parallel to [sites] *)
  live : int array; (* heap addr -> packed (site, words); 0 = none *)
  mutable collections : int; (* collections observed end-to-end *)
  mutable minor_collections : int;
  mutable full_collections : int;
  mutable cur_minor : bool; (* kind of the collection in progress *)
}

let fresh_stats () =
  {
    st_allocs = 0;
    st_alloc_words = 0;
    st_minor_survivals = 0;
    st_minor_words = 0;
    st_full_survivals = 0;
    st_full_words = 0;
    st_dead_objects = 0;
    st_dead_words = 0;
  }

(* A side-array entry packs the object's size above its site id plus one:
   [(words lsl site_bits) lor (site + 1)]. Every object has a header word,
   so an entry is never 0, and 0 marks an address holding no keyed object.
   An allocation outside the site table keys as site -1. *)
let site_bits = 24
let site_mask = (1 lsl site_bits) - 1
let[@inline] entry_site e = (e land site_mask) - 1

(** A profiler for [sites] whose side array covers addresses [0, words)
    (the image's extent, which the fixed semispaces never leave). Raises
    [Invalid_argument] when the site ids do not fit an entry. *)
let create ~words (sites : site array) : t =
  if Array.length sites > site_mask then
    invalid_arg
      (Printf.sprintf "Profile.create: %d sites, at most %d fit the side array"
         (Array.length sites) site_mask);
  {
    sites;
    stats = Array.init (Array.length sites) (fun _ -> fresh_stats ());
    live = Array.make words 0;
    collections = 0;
    minor_collections = 0;
    full_collections = 0;
    cur_minor = false;
  }

let in_range t site = site >= 0 && site < Array.length t.stats

(* Credit the object of side-array entry [e] (nonzero) as dead. *)
let credit_dead t e =
  let site = entry_site e in
  if site >= 0 then begin
    let st = t.stats.(site) in
    st.st_dead_objects <- st.st_dead_objects + 1;
    st.st_dead_words <- st.st_dead_words + (e lsr site_bits)
  end

(** Record an allocation of [words] words at heap address [addr] from
    static site [site]. A stale entry at the same address means the
    previous occupant was reclaimed without a copy-out (the non-moving
    collectors recycle addresses through their free lists); it is credited
    as dead before being replaced. Kept out of line, like {!on_copy}, so
    the callers' hot loops stay as they are. *)
let[@inline never] on_alloc t ~site ~addr ~words =
  let old = t.live.(addr) in
  if old <> 0 then credit_dead t old;
  t.live.(addr) <- (words lsl site_bits) lor if in_range t site then site + 1 else 0;
  if in_range t site then begin
    let st = t.stats.(site) in
    st.st_allocs <- st.st_allocs + 1;
    st.st_alloc_words <- st.st_alloc_words + words
  end

let begin_collection t ~minor = t.cur_minor <- minor

(** An object was evacuated from [src] to [dst]: move its side-array
    entry and credit the survival to its site. Objects the profiler never
    saw allocated (none, in practice) pass through unattributed. *)
let[@inline never] on_copy t ~src ~dst ~words =
  let e = t.live.(src) in
  if e <> 0 then begin
    t.live.(src) <- 0;
    t.live.(dst) <- (words lsl site_bits) lor (e land site_mask);
    let site = entry_site e in
    if site >= 0 then begin
      let st = t.stats.(site) in
      if t.cur_minor then begin
        st.st_minor_survivals <- st.st_minor_survivals + 1;
        st.st_minor_words <- st.st_minor_words + words
      end
      else begin
        st.st_full_survivals <- st.st_full_survivals + 1;
        st.st_full_words <- st.st_full_words + words
      end
    end
  end

(** The collection is over and [src_lo, src_hi) was evacuated: everything
    still keyed there was not forwarded, i.e. it died. Sweep that range of
    the side array into the per-site death counts — a minor collection
    pays for its nursery, not for the whole keyed heap. *)
let end_collection t ~src_lo ~src_hi =
  let live = t.live in
  for a = max 0 src_lo to min src_hi (Array.length live) - 1 do
    let e = Array.unsafe_get live a in
    if e <> 0 then begin
      credit_dead t e;
      Array.unsafe_set live a 0
    end
  done;
  t.collections <- t.collections + 1;
  if t.cur_minor then t.minor_collections <- t.minor_collections + 1
  else t.full_collections <- t.full_collections + 1

(** Site id of a live heap object, [-1] if the profiler never saw it. *)
let site_of_addr t addr =
  if addr >= 0 && addr < Array.length t.live then entry_site t.live.(addr) else -1

(** Per site, the objects still keyed: allocated or copied and not yet
    credited dead. Each allocation is one of these or one death, so
    [allocs = dead_objects + keyed] site by site. *)
let keyed_objects t =
  let n = Array.make (Array.length t.stats) 0 in
  Array.iter
    (fun e ->
      let site = entry_site e in
      if site >= 0 then n.(site) <- n.(site) + 1)
    t.live;
  n

(** Fraction of this site's attributed words that survived a collection,
    in [0,1]; objects still live (never collected either way) count for
    neither side. An object surviving several collections is credited each
    time, which weights long-lived sites up — exactly the signal a
    pretenuring policy wants. *)
let survival_rate (st : site_stats) =
  let survived = st.st_minor_words + st.st_full_words in
  let denom = survived + st.st_dead_words in
  if denom = 0 then 0.0 else float_of_int survived /. float_of_int denom

(* ------------------------------------------------------------------ *)
(* Emission                                                            *)
(* ------------------------------------------------------------------ *)

module J = Telemetry.Json

let schema_name = "mm-profile"
let schema_version = 1

let site_json t i : J.t =
  let s = t.sites.(i) and st = t.stats.(i) in
  J.Obj
    [
      ("id", J.Int s.s_id);
      ("proc", J.Str s.s_proc);
      ("line", J.Int s.s_line);
      ("col", J.Int s.s_col);
      ("tdesc", J.Int s.s_tdesc);
      ("open_array", J.Bool s.s_open);
      ("allocs", J.Int st.st_allocs);
      ("alloc_words", J.Int st.st_alloc_words);
      ("minor_survivals", J.Int st.st_minor_survivals);
      ("minor_survived_words", J.Int st.st_minor_words);
      ("full_survivals", J.Int st.st_full_survivals);
      ("full_survived_words", J.Int st.st_full_words);
      ("dead_objects", J.Int st.st_dead_objects);
      ("dead_words", J.Int st.st_dead_words);
      ("survival_rate", J.Float (survival_rate st));
    ]

(** The versioned profile document: every static site with its counts,
    and the collections that attributed them. *)
let to_json t : J.t =
  J.Obj
    [
      ("schema", J.Str schema_name);
      ("version", J.Int schema_version);
      ("sites", J.List (List.init (Array.length t.sites) (site_json t)));
      ( "collections",
        J.Obj
          [
            ("total", J.Int t.collections);
            ("minor", J.Int t.minor_collections);
            ("full", J.Int t.full_collections);
          ] );
    ]
