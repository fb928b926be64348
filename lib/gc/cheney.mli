(** The precise, fully compacting semispace collector, and the phase
    driver ({!run}) that it and {!Nursery.minor} share.

    Every live object moves on every collection — the strongest exercise of
    the compiler-emitted tables: tidy pointers in globals, stack slots and
    registers are forwarded; derived values are un-derived before the copy
    and re-derived after (paper §3), never followed (the dead-base rule
    guarantees any object reachable through a derived value is also
    reachable through one of its bases).

    Timing instrumentation fills the interpreter's {!Vm.Interp.gc_stats}:
    [trace_ns] covers the work the paper calls "stack tracing" — the
    stack-walk, un-derive and re-derive windows (locating and decoding
    tables, walking frames, adjusting and re-deriving derived values) and
    the updating of stack/register roots; [copy_ns] is the copy window. *)

(** Region-parametric copying machinery, run by {!run} for both kinds: a full
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

val scan_placed : copier -> int -> hi:int -> int
(** Forward every pointer field of an object a minor collection scans in
    place (pooled, pretenured or big), which must end by [hi] and below
    the destination region; returns the address one past it. Its header
    never passed through {!forward}, so it is checked first.
    @raise Vm.Vm_error.Error with a [Bad_root] if it is not a valid
    object. *)

val run :
  Vm.Interp.t ->
  minor:bool ->
  regions:(unit -> copier) ->
  extra_roots:(copier -> unit) ->
  reopen:(copier -> unit) ->
  unit
(** One copying collection: walk the stack, un-derive, copy (build the
    copier with [regions], forward the globals and the frames' tidy roots,
    then [extra_roots], scan the destination, [reopen]), re-derive. Each
    phase's time goes to one of the four histograms [gc.stackwalk_ns],
    [gc.underive_ns], [gc.copy_ns] and [gc.rederive_ns], which tile the
    pause [gc.pause_ns]. [minor] selects the names a minor collection
    reports under ([gc.minor], [minor-pre]/[minor-post],
    [words_promoted]) and its counters. *)

val collect : Vm.Interp.t -> needed:int -> unit
(** Run one full collection through {!run}: its regions are from-space
    and a fresh to-space, and it reopens by flipping the semispaces and
    applying the post-collection growth policy. Installed as
    the interpreter's collector by {!install}.
    @raise Vm.Vm_error.Error on a corrupt root (e.g. an untidy pointer in a
    tidy table entry — an invariant check that the tests rely on). *)

val install : Vm.Interp.t -> unit
