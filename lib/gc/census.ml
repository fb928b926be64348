(** Heap census: a linear walk over the live heap regions tallying objects
    and words by type descriptor and by allocation site.

    The walk is independent of both the collector and {!Verify} — it parses
    object headers directly off the allocation frontiers — so a test can
    cross-check its totals against the verifier's live-heap parse without
    the two sharing any code. Taken at collection boundaries (right after a
    collection retires the garbage) the census is exactly the live heap.
    Nothing in the runtime takes one: it is the test suite's oracle for
    the copier's counts and the verifier's live-heap parse. *)

(** Live objects and words, broken down by type descriptor and by
    allocation site. *)
type t = {
  objects : int;
  words : int;
  by_tdesc : (int * int * int) list; (* (tdesc, objects, words), ascending *)
  by_site : (int * int * int) list; (* (site, objects, words), ascending; -1 = unknown *)
}

(** Header-driven size of the object at [addr]; [None] when the header is
    not a plausible type descriptor (a corrupt heap — the verifier's
    department, not ours). *)
let object_size (st : Vm.Interp.t) addr =
  let sizes = st.Vm.Interp.image.Vm.Image.layouts.Rt.Typedesc.sizes in
  let tdid = st.Vm.Interp.mem.{addr} in
  if tdid < 0 || tdid >= Array.length sizes then None
  else
    let length = if sizes.(tdid) > 0 then 0 else st.Vm.Interp.mem.{addr + 1} in
    if length < 0 then None else Some (tdid, Rt.Typedesc.words sizes.(tdid) ~length)

(** Take one census of the machine's live regions — flat mode walks
    [from_base, alloc); generational mode walks the old generation and the
    nursery separately — attributing each object to its site through the
    profiler [p]. *)
let take (st : Vm.Interp.t) (p : Profile.t) : t =
  let by_tdesc = Hashtbl.create 32 in
  let by_site = Hashtbl.create 64 in
  let objects = ref 0 in
  let words = ref 0 in
  let tally tbl key w =
    let o, ww = Option.value ~default:(0, 0) (Hashtbl.find_opt tbl key) in
    Hashtbl.replace tbl key (o + 1, ww + w)
  in
  let walk lo hi =
    let a = ref lo in
    let ok = ref true in
    while !ok && !a < hi do
      (* The mark-sweep core leaves filler blocks (negative headers) in
         the live range; they hold no objects and are stepped over. *)
      let header = st.Vm.Interp.mem.{!a} in
      if header < 0 && st.Vm.Interp.inc <> None then a := !a - header
      else
        match object_size st !a with
        | None -> ok := false
        | Some (tdid, sz) ->
          incr objects;
          words := !words + sz;
          tally by_tdesc tdid sz;
          tally by_site (Profile.site_of_addr p !a) sz;
          a := !a + sz
    done
  in
  (match st.Vm.Interp.gen with
  | Some g ->
      walk st.Vm.Interp.from_base g.Vm.Interp.old_alloc;
      walk g.Vm.Interp.nursery_base g.Vm.Interp.nursery_alloc
  | None -> walk st.Vm.Interp.from_base st.Vm.Interp.alloc);
  let dump tbl =
    Hashtbl.fold (fun k (o, w) acc -> (k, o, w) :: acc) tbl [] |> List.sort compare
  in
  { objects = !objects; words = !words; by_tdesc = dump by_tdesc; by_site = dump by_site }
