(** The precise, fully compacting semispace collector.

    Every live object moves on every collection — the strongest exercise of
    the compiler-emitted tables: tidy pointers in globals, stack slots and
    registers are forwarded; derived values are un-derived before the copy
    and re-derived after (paper §3), never followed (the dead-base rule
    guarantees any object reachable through a derived value is also
    reachable through one of its bases).

    Timing instrumentation fills the interpreter's {!Vm.Interp.gc_stats}:
    [trace_ns] covers exactly the work the paper calls "stack tracing" —
    locating and decoding tables, walking frames, adjusting and re-deriving
    derived values, and updating stack/register roots. *)

(** Region-parametric copying machinery, shared with {!Nursery}: a full
    collection evacuates from-space into to-space, a minor collection
    evacuates the nursery onto the old-generation frontier of the same
    semispace. Built by {!make_copier} only, so its regions are known to
    lie inside the store. *)
type copier = private {
  st : Vm.Interp.t;
  mem : Vm.Mem.t; (* [st.mem]; nothing replaces the store mid-collection *)
  sizes : int array; (* the image's flat layout table *)
  offsets : int array array;
  prof : Profile.t option;
  src_lo : int; (* objects in [src_lo, src_hi) are evacuated *)
  src_hi : int;
  dst_lo : int; (* evacuation region bounds *)
  dst_hi : int;
  mutable to_alloc : int;
  mutable copied : int; (* objects evacuated; the collector adds it to the counters *)
}

val make_copier :
  Vm.Interp.t -> src_lo:int -> src_hi:int -> dst_lo:int -> dst_hi:int -> copier
(** A copier with an empty destination ([to_alloc = dst_lo]).
    @raise Vm.Vm_error.Error if either region leaves the store. *)

val forward : copier -> int -> int
(** Forward a tidy pointer: copy its object to the destination region if
    not already copied; values outside [src_lo, src_hi) are returned
    unchanged. The range test inlines into callers in other modules; the
    evacuation is out of line.
    @raise Vm.Vm_error.Error with a [Bad_root] when the pointer does not
    reference a valid object: its header is not a type descriptor, an
    open array's length is negative, or the object overruns the source
    or the destination region. *)

val scan_from : copier -> int -> unit
(** The Cheney loop: forward every pointer field of each destination-region
    object from the given address until the scan pointer catches up with
    [to_alloc]. The headers there are trusted: {!forward} checked them on
    the way in. *)

val scan_placed : copier -> int -> hi:int -> int
(** Forward every pointer field of an object a minor collection scans in
    place (pooled, pretenured or big), which must end by [hi] and below
    the destination region; returns the address one past it. Its header
    never passed through {!forward}, so it is checked first.
    @raise Vm.Vm_error.Error with a [Bad_root] if it is not a valid
    object. *)

val forward_frame_roots : copier -> Stackwalk.frame -> unit
(** Forward the tidy stack-slot and register roots of one frame through
    the gc-point tables. *)

val collect : Vm.Interp.t -> needed:int -> unit
(** Run one collection: walk, adjust, copy, re-derive, flip. Installed as
    the interpreter's collector by {!install}.
    @raise Vm.Vm_error.Error on a corrupt root (e.g. an untidy pointer in a
    tidy table entry — an invariant check that the tests rely on). *)

val trace_only : Vm.Interp.t -> unit
(** A "null collection": locate the tables, walk the stack, adjust and
    immediately re-derive, moving nothing. Used to reproduce the paper's
    §6.3 differencing methodology; must leave the machine state unchanged
    (asserted by the test suite). *)

val install : Vm.Interp.t -> unit

val now_ns : unit -> int64
(** Monotonic-enough wall clock used for the gc timers. *)
