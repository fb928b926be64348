(** Post- (and optionally pre-) collection heap-and-root verification.

    Re-derives the collector's invariants from scratch around each
    collection: the live region parses as a sequence of valid objects,
    every heap pointer field and every tidy root (global, stack slot,
    register) references NIL, a non-heap address or a live object header,
    walked frame pointers lie inside the stack, and every derived value
    re-derives with the same E the un-derive step recovered (§3).
    Violations accumulate into a {!report}; a non-empty report raises
    [Vm.Vm_error.Error (Verify_failed _)].

    Disabled passes cost one flag test per collection. *)

(** {2 Switches} *)

val set_post : bool -> unit
(** Enable/disable the after-collection pass ([mmrun --verify-heap]).
    Off until set. *)

val set_pre : bool -> unit
(** Enable/disable the before-collection pass ([mmrun --verify-pre]).
    Off until set. *)

val post_enabled : unit -> bool
val pre_enabled : unit -> bool

(** {2 Reports} *)

type report = {
  collection : int;
  phase : string; (* "pre" | "post" *)
  objects : int; (* live objects walked *)
  roots : int; (* global + stack + register roots checked *)
  derived : int; (* derived entries re-checked *)
  violations : string list;
}

val last_report : unit -> report option
(** The most recent pass's report (also for passes that found nothing). *)

(** {2 Derived-value snapshots} *)

type derived_snapshot

val snapshot_derived :
  Vm.Interp.t -> (Stackwalk.frame * Gcmaps.Rawmaps.deriv_entry list) list -> derived_snapshot
(** Capture E for every adjusted derived value. Must be called between
    the un-derive step (targets hold exactly E) and the copy. *)

(** {2 Entry point} *)

val check :
  Vm.Interp.t ->
  phase:string ->
  frames:Stackwalk.frame list ->
  ?derived:derived_snapshot ->
  unit ->
  report
(** Run a full pass over the given collection's frames (the verifier
    never re-walks the stack, so a pre-pass checks exactly the frames the
    collector is about to trust).
    @raise Vm.Vm_error.Error [Verify_failed] if any check fails. *)
