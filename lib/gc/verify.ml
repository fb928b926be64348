(** Post- (and optionally pre-) collection heap-and-root verification.

    The paper's machinery only works if the compiler-emitted tables are
    exactly right — "an incorrect program can destroy data even in
    type-safe languages" (§2). This module re-derives the collector's
    invariants from scratch after every collection and reports every
    violation it finds, instead of letting a wrong table entry surface as
    silent data corruption a million instructions later:

    - the live region [from_base, alloc) parses as a sequence of valid
      objects: every header names a real type descriptor and every
      object's size keeps it inside the live region;
    - every heap pointer field of every live object is NIL, a non-heap
      address (static text), or the address of a live object's header;
    - every global, stack and register root the tables call tidy
      satisfies the same rule;
    - frame pointers of the walked stack lie inside the stack segment;
    - every derived value re-derives consistently: the E recovered by the
      un-derive step equals [target − Σplus + Σminus] recomputed from the
      post-collection values (the §3 invariant [target = Σplus − Σminus + E]).

    Checks accumulate into a {!report} rather than dying on the first
    failure; a non-empty report raises [Vm.Vm_error.Verify_failed].

    Both passes are off by default and cost one flag test per collection
    when disabled (telemetry-style). They are enabled by [mmrun
    --verify-heap] / [--verify-pre], or by [MM_VERIFY_HEAP] /
    [MM_VERIFY_PRE] (read by {!Support.Runtime_config}) so a whole test
    run can be forced through verification without threading flags. *)

module RM = Gcmaps.Rawmaps
module L = Gcmaps.Loc

let c_runs = Telemetry.Metrics.counter "verify.runs"
let c_violations = Telemetry.Metrics.counter "verify.violations"

(* ------------------------------------------------------------------ *)
(* Switches                                                            *)
(* ------------------------------------------------------------------ *)

(* [None] until set from code: the environment's value, read on first use. *)
let post_flag = ref None
let pre_flag = ref None
let set_post b = post_flag := Some b
let set_pre b = pre_flag := Some b
let post_enabled () =
  match !post_flag with Some b -> b | None -> (Support.Runtime_config.env ()).verify_heap
let pre_enabled () =
  match !pre_flag with Some b -> b | None -> (Support.Runtime_config.env ()).verify_pre

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

type report = {
  collection : int;
  phase : string; (* "pre" | "post" *)
  objects : int; (* live objects walked *)
  roots : int; (* global + stack + register roots checked *)
  derived : int; (* derived entries re-checked *)
  violations : string list;
}

let last : report option ref = ref None
let last_report () = !last

(* Cap the accumulated violations: one corrupt header typically cascades,
   and the report is for a human. *)
let max_violations = 64

type ctx = {
  st : Vm.Interp.t;
  mutable violations : string list; (* reversed *)
  mutable nviol : int;
  mutable objects : int;
  mutable roots : int;
  mutable nderived : int;
  starts : (int, int) Hashtbl.t; (* object header address -> size *)
  mutable walk_ok : bool; (* heap parse completed; starts is total *)
}

let violate c fmt =
  Printf.ksprintf
    (fun s ->
      c.nviol <- c.nviol + 1;
      if c.nviol <= max_violations then c.violations <- s :: c.violations)
    fmt

(* ------------------------------------------------------------------ *)
(* Heap walk                                                           *)
(* ------------------------------------------------------------------ *)

(* The heap region is everything from [heap_base] to the end of the
   current store: the heap is the last region of the memory map, and the
   adaptive policy may have grown the store since startup, so
   the bound is read from the live store, not the image. *)
let heap_lo (st : Vm.Interp.t) = st.Vm.Interp.image.Vm.Image.heap_base
let heap_hi (st : Vm.Interp.t) = Vm.Mem.length st.Vm.Interp.mem

let in_heap_region st v = v >= heap_lo st && v < heap_hi st

(* In generational mode the live part of from-space is two regions: the
   old generation at the bottom and the nursery at the top, with dead
   space between the frontiers. *)
let in_live st v =
  match st.Vm.Interp.gen with
  | None -> v >= st.Vm.Interp.from_base && v < st.Vm.Interp.alloc
  | Some g ->
      (v >= st.Vm.Interp.from_base && v < g.Vm.Interp.old_alloc)
      || (v >= g.Vm.Interp.nursery_base && v < g.Vm.Interp.nursery_alloc)

let in_nursery st v =
  match st.Vm.Interp.gen with
  | None -> false
  | Some g -> v >= g.Vm.Interp.nursery_base && v < g.Vm.Interp.nursery_alloc

(* A value is a valid pointer target iff it is not a heap-region address
   at all (NIL, a global, static text — the tables legitimately cover
   such references), or it is the header address of a live object. Heap
   addresses outside the live range, or inside an object, are exactly the
   dangling/interior references a table bug produces. *)
let check_target c ~what v =
  if in_heap_region c.st v then begin
    if not (in_live c.st v) then
      violate c "%s holds %d: inside the heap but outside every live region" what v
    else if c.walk_ok && not (Hashtbl.mem c.starts v) then
      violate c "%s holds %d: inside the live region but not an object header" what v
  end

(* Parse one live region as a sequence of valid objects. *)
let walk_region c lo hi =
  let st = c.st in
  let mem = st.Vm.Interp.mem in
  let sizes = st.Vm.Interp.image.Vm.Image.layouts.Rt.Typedesc.sizes in
  let addr = ref lo in
  try
    while !addr < hi do
      let header = mem.{!addr} in
      (* The mark-sweep core (incremental or conservative) frees in
         place: a negative header [-size] is a filler (free block),
         parsed but not an object. *)
      if header < 0 && st.Vm.Interp.inc <> None then begin
        let size = -header in
        if !addr + size > hi then begin
          violate c "filler at %d (size %d words) overruns the live region end %d" !addr size
            hi;
          raise Exit
        end;
        addr := !addr + size
      end
      else begin
        if header < 0 || header >= Array.length sizes then begin
          violate c "object at %d has header %d, not a type descriptor (0..%d)" !addr header
            (Array.length sizes - 1);
          raise Exit
        end;
        let length = if sizes.(header) > 0 then 0 else mem.{!addr + 1} in
        if length < 0 then begin
          violate c "open array at %d has negative length %d" !addr length;
          raise Exit
        end;
        let size = Rt.Typedesc.words sizes.(header) ~length in
        if size <= 0 || !addr + size > hi then begin
          violate c "object at %d (size %d words) overruns the live region end %d" !addr size hi;
          raise Exit
        end;
        Hashtbl.replace c.starts !addr size;
        c.objects <- c.objects + 1;
        addr := !addr + size
      end
    done
  with Exit -> c.walk_ok <- false

let walk_heap c =
  let st = c.st in
  let lo = st.Vm.Interp.from_base in
  let fw = st.Vm.Interp.from_words in
  let tb = st.Vm.Interp.to_base and tw = st.Vm.Interp.to_words in
  (* Geometry sanity under the adaptive policy: both spaces must lie
     inside the heap region of the current store, and must not overlap —
     the tracked fields replace the fixed two-semispace layout check. *)
  if lo < heap_lo st || fw < 0 || lo + fw > heap_hi st then begin
    violate c "from-space [%d, %d) outside the heap region [%d, %d)" lo (lo + fw)
      (heap_lo st) (heap_hi st);
    c.walk_ok <- false
  end
  else if tb < heap_lo st || tw < 0 || tb + tw > heap_hi st then begin
    violate c "to-space [%d, %d) outside the heap region [%d, %d)" tb (tb + tw)
      (heap_lo st) (heap_hi st);
    c.walk_ok <- false
  end
  else if tb < lo + fw && lo < tb + tw then begin
    violate c "to-space [%d, %d) overlaps from-space [%d, %d)" tb (tb + tw) lo (lo + fw);
    c.walk_ok <- false
  end
  else
    match st.Vm.Interp.gen with
    | None ->
        let hi = st.Vm.Interp.alloc in
        if hi < lo || hi > lo + fw then begin
          violate c "allocation frontier %d outside the current from-space [%d, %d]" hi lo
            (lo + fw);
          c.walk_ok <- false
        end
        else walk_region c lo hi
    | Some g ->
        (* Two live regions: old generation, then the nursery. *)
        let old_hi = g.Vm.Interp.old_alloc in
        let nb = g.Vm.Interp.nursery_base and na = g.Vm.Interp.nursery_alloc in
        if old_hi < lo || old_hi > nb || nb > na || na > lo + fw then begin
          violate c
            "generational frontiers out of order: from_base %d <= old_alloc %d <= \
             nursery_base %d <= nursery_alloc %d <= %d violated"
            lo old_hi nb na (lo + fw);
          c.walk_ok <- false
        end
        else begin
          (* Pool chunks leave object-free gaps (unfilled chunk tails)
             inside the old generation; the linear parse must step over
             them. The gap list is sorted and every gap lies within
             [from_base, old_alloc). *)
          let lo_ref = ref lo in
          List.iter
            (fun (glo, ghi) ->
              if c.walk_ok && glo <= old_hi then begin
                walk_region c !lo_ref (min glo old_hi);
                lo_ref := ghi
              end)
            (Vm.Interp.pool_gaps st);
          if c.walk_ok && !lo_ref < old_hi then walk_region c !lo_ref old_hi;
          if c.walk_ok then walk_region c nb na
        end

(* Mid-sweep, garbage objects above the cursor may legitimately point at
   blocks already turned into fillers below it — they are dead, the
   collector just has not reached them yet. Field checks are therefore
   restricted to objects the flip proved live (marked) or allocated after
   the flip (at or beyond the captured sweep limit). In every other phase
   all parsed objects are checked: live objects never reference fillers
   (inductively — a filler was garbage when created, so nothing live
   pointed at it, and the mutator only stores pointers it derived from
   live objects). *)
let field_checkable c addr =
  match c.st.Vm.Interp.inc with
  | Some inc when inc.Vm.Interp.inc_phase = Vm.Interp.Inc_sweeping ->
      addr >= inc.Vm.Interp.inc_sweep_limit
      || Support.Bitset.mem inc.Vm.Interp.inc_marks (addr - c.st.Vm.Interp.from_base)
  | _ -> true

(* Second pass over the parsed objects: every pointer field must reference
   a valid target. Only meaningful when the parse completed. *)
let check_heap_fields c =
  if c.walk_ok then begin
    let mem = c.st.Vm.Interp.mem in
    Hashtbl.iter
      (fun addr _size ->
        if field_checkable c addr then
          Vm.Image.iter_ptr_fields c.st.Vm.Interp.image mem addr (fun a ->
              check_target c ~what:(Printf.sprintf "heap word %d" a) mem.{a}))
      c.starts
  end

(* Tri-color invariant (incremental marking, checked at slice
   boundaries): a black object — marked and no longer on the mark stack —
   must not reference an unmarked (white) object. The insertion barrier
   shades every stored pointer, so the only way to create a black→white
   edge is a missing or wrongly eliminated barrier; this check catches it
   at the first slice boundary instead of as a reclaimed-live-object
   corruption after the flip. Skipped while the mark stack has spilled
   (marked-but-unscanned objects are then indistinguishable from black);
   under barrier-storm fault injection re-grayed black objects simply
   land in the gray set and are skipped, which only weakens the check. *)
let check_tricolor c =
  match c.st.Vm.Interp.inc with
  | Some inc
    when inc.Vm.Interp.inc_phase = Vm.Interp.Inc_marking
         && (not inc.Vm.Interp.inc_spilled)
         && c.walk_ok ->
      let st = c.st in
      let mem = st.Vm.Interp.mem in
      let base = st.Vm.Interp.from_base in
      let marked a = Support.Bitset.mem inc.Vm.Interp.inc_marks (a - base) in
      let gray = Hashtbl.create 64 in
      for i = 0 to inc.Vm.Interp.inc_gray_len - 1 do
        Hashtbl.replace gray inc.Vm.Interp.inc_gray.(i) ()
      done;
      let in_from v = v >= base && v < st.Vm.Interp.alloc in
      let check_edge addr a =
        let v = mem.{a} in
        if in_from v && not (marked v) then
          violate c
            "tri-color violation: black object at %d (word %d) points at unmarked %d" addr a
            v
      in
      Hashtbl.iter
        (fun addr _size ->
          if marked addr && not (Hashtbl.mem gray addr) then
            Vm.Image.iter_ptr_fields st.Vm.Interp.image mem addr (check_edge addr))
        c.starts
  | _ -> ()

(* Generational invariant: every old-generation slot holding a nursery
   pointer must be covered — recorded in the remembered set by a write
   barrier, or inside an object placed in the old generation since the
   last minor collection (a big or pretenured object, or the young part of
   a pool), which the next minor scans once. An uncovered old→young
   reference is exactly the bug a missing (or wrongly eliminated) barrier
   produces: the next minor collection would leave it dangling. *)
let check_old_young c =
  match c.st.Vm.Interp.gen with
  | None -> ()
  | Some g ->
      if c.walk_ok then begin
        let mem = c.st.Vm.Interp.mem in
        let big = Hashtbl.create 16 in
        List.iter (fun a -> Hashtbl.replace big a ()) g.Vm.Interp.big_objects;
        (* Young pool ranges are disjoint; sorted by [lo], the only range
           that can hold [owner] is the last one starting at or below it. *)
        let young = Array.of_list (Vm.Interp.pool_young_ranges c.st) in
        Array.sort compare young;
        let in_young_pool owner =
          let rec go lo hi =
            (* invariant: ranges [0, lo) start at or below [owner], ranges
               [hi, n) start above it *)
            if lo >= hi then lo > 0 && owner < snd young.(lo - 1)
            else
              let mid = (lo + hi) / 2 in
              if fst young.(mid) <= owner then go (mid + 1) hi else go lo mid
          in
          go 0 (Array.length young)
        in
        let check_slot owner a =
          let v = mem.{a} in
          if
            in_nursery c.st v
            && (not (Remset.mem c.st g a))
            && (not (Hashtbl.mem big owner))
            && not (in_young_pool owner)
          then
            violate c
              "old-generation word %d holds nursery pointer %d but is neither remembered \
               nor inside a placed object the next minor collection scans"
              a v
        in
        Hashtbl.iter
          (fun addr _size ->
            if addr < g.Vm.Interp.old_alloc then
              Vm.Image.iter_ptr_fields c.st.Vm.Interp.image mem addr (check_slot addr))
          c.starts
      end

(* ------------------------------------------------------------------ *)
(* Roots                                                               *)
(* ------------------------------------------------------------------ *)

let check_global_roots c =
  List.iter
    (fun a ->
      c.roots <- c.roots + 1;
      check_target c ~what:(Printf.sprintf "global root at %d" a) c.st.Vm.Interp.mem.{a})
    c.st.Vm.Interp.image.Vm.Image.global_roots

let check_frame_roots c (fr : Stackwalk.frame) =
  let img = c.st.Vm.Interp.image in
  if fr.Stackwalk.fr_fp < img.Vm.Image.stack_base || fr.Stackwalk.fr_fp >= img.Vm.Image.stack_top
  then
    violate c "frame of proc %d has fp %d outside the stack [%d, %d)" fr.Stackwalk.fr_fid
      fr.Stackwalk.fr_fp img.Vm.Image.stack_base img.Vm.Image.stack_top;
  if fr.Stackwalk.fr_sp < img.Vm.Image.stack_base || fr.Stackwalk.fr_sp > fr.Stackwalk.fr_fp then
    violate c "frame of proc %d has sp %d outside [stack_base, fp=%d]" fr.Stackwalk.fr_fid
      fr.Stackwalk.fr_sp fr.Stackwalk.fr_fp;
  let where l =
    Printf.sprintf "proc %d %s root %s" fr.Stackwalk.fr_fid
      (match l with L.Lreg _ -> "register" | L.Lmem _ -> "stack")
      (L.to_string l)
  in
  List.iter
    (fun l ->
      c.roots <- c.roots + 1;
      check_target c ~what:(where l) (Stackwalk.read c.st fr l))
    fr.Stackwalk.fr_gcpoint.RM.stack_ptrs;
  List.iter
    (fun r ->
      let l = L.Lreg r in
      c.roots <- c.roots + 1;
      check_target c ~what:(where l) (Stackwalk.read c.st fr l))
    fr.Stackwalk.fr_gcpoint.RM.reg_ptrs

(* ------------------------------------------------------------------ *)
(* Derived values (§3 invariant)                                       *)
(* ------------------------------------------------------------------ *)

(** The E of each live derived value, captured between the un-derive step
    (when targets hold exactly E) and the copy. After re-derivation the
    invariant [E = target − Σplus + Σminus] must hold again over the
    {e moved} values; {!check_derived} recomputes it. *)
type derived_snapshot = (Stackwalk.frame * RM.deriv_entry * int) list

let snapshot_derived (st : Vm.Interp.t)
    (adjusted : (Stackwalk.frame * RM.deriv_entry list) list) : derived_snapshot =
  List.concat_map
    (fun (fr, entries) ->
      List.map (fun (e : RM.deriv_entry) -> (fr, e, Stackwalk.read st fr e.RM.target)) entries)
    adjusted

let check_derived c (snap : derived_snapshot) =
  List.iter
    (fun ((fr : Stackwalk.frame), (e : RM.deriv_entry), expected_e) ->
      c.nderived <- c.nderived + 1;
      let v = ref (Stackwalk.read c.st fr e.RM.target) in
      List.iter (fun b -> v := !v - Stackwalk.read c.st fr b) e.RM.plus;
      List.iter (fun b -> v := !v + Stackwalk.read c.st fr b) e.RM.minus;
      if !v <> expected_e then
        violate c
          "derived value %s in proc %d re-derives with E=%d, un-derive recovered E=%d"
          (L.to_string e.RM.target) fr.Stackwalk.fr_fid !v expected_e)
    snap

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

(** Run a full verification pass. [frames] is the stack walk of the
    collection being checked (the verifier never re-walks, so a pre-pass
    sees exactly the frames the collector is about to trust); [derived]
    is the E snapshot for post-passes.
    @raise Vm.Vm_error.Error [Verify_failed] if any check fails. *)
let check (st : Vm.Interp.t) ~phase ~frames ?(derived = []) () : report =
  Telemetry.Metrics.incr c_runs;
  let c =
    {
      st;
      violations = [];
      nviol = 0;
      objects = 0;
      roots = 0;
      nderived = 0;
      starts = Hashtbl.create 256;
      walk_ok = true;
    }
  in
  Telemetry.Trace.begin_span ~cat:"gc" "gc.verify";
  walk_heap c;
  check_heap_fields c;
  check_tricolor c;
  check_old_young c;
  check_global_roots c;
  List.iter (check_frame_roots c) frames;
  check_derived c derived;
  Telemetry.Trace.end_span ~args:[ ("phase", Telemetry.Json.Str phase) ] ();
  let violations =
    let vs = List.rev c.violations in
    if c.nviol > max_violations then
      vs @ [ Printf.sprintf "... and %d more" (c.nviol - max_violations) ]
    else vs
  in
  let r =
    {
      collection = st.Vm.Interp.gc.Vm.Interp.collections;
      phase;
      objects = c.objects;
      roots = c.roots;
      derived = c.nderived;
      violations;
    }
  in
  last := Some r;
  if c.nviol > 0 then begin
    Telemetry.Metrics.incr ~by:c.nviol c_violations;
    Vm.Vm_error.(
      error (Verify_failed { collection = r.collection; phase; violations = r.violations }))
  end;
  r
