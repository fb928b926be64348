(** Generational collection layered on the unchanged gc-point tables: a
    bump-allocated nursery at the top of from-space, minor collections
    that promote survivors onto the old-generation frontier (no semispace
    flip), a remembered set filled by compiler-emitted write barriers, and
    fallback to the full {!Cheney} compaction when headroom runs out. The
    encoded tables are byte-identical to the non-generational build: the
    mode is a pure runtime switch. *)

val default_nursery_words : int -> int
(** Default nursery size for a given semispace size (a quarter of it,
    floored at 300 words and capped at the whole semispace). *)

val minor : Vm.Interp.t -> Vm.Interp.gen_state -> unit
(** One minor collection, through {!Cheney.run}. The caller must have verified promotion
    headroom: old-generation free space at least the nursery's used
    words. Prefer {!collect}. *)

val collect : Vm.Interp.t -> needed:int -> unit
(** The generational policy: minor when survivors are guaranteed to fit,
    full {!Cheney.collect} otherwise. Installed by {!install}. *)

val install : ?nursery_words:int -> Vm.Interp.t -> unit
(** Put the machine in generational mode: initialize the nursery split
    and install {!collect} as the collector. *)
