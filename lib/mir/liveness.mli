(** Backward liveness over temps and frame locals, including the paper's
    {e dead base} rule (§4): a use of a derived value is treated as a use of
    each of its base values, transitively, so that bases outlive everything
    derived from them and the collector can always update derived values.

    Address-taken locals and embedded aggregates are conservatively live
    everywhere (their slots are reachable through stored addresses, and
    frames are zeroed on entry so this is sound). *)

type t

val compute : Ir.func -> t
(** Block live sets by a worklist fixpoint, then every block's
    per-instruction live sets, computed once and kept on [t]. *)

val block_live_out : t -> int -> Support.Bitset.t * Support.Bitset.t
(** [(temps, locals)] live at the end of a block. *)

val block_live_in : t -> int -> Support.Bitset.t * Support.Bitset.t
(** [(temps, locals)] live at the start of a block. *)

val per_instr_live_out : t -> int -> (Support.Bitset.t * Support.Bitset.t) array
(** For block [b] with instructions [i0..in-1], element [i] is the pair of
    live sets immediately {e after} instruction [i] (before the next one).
    The array and its sets are the ones cached on [t], shared by every
    caller: read them, never mutate them. The same holds for the sets
    {!block_live_in} and {!block_live_out} return. *)

val live_at_gcpoint :
  t -> int -> int -> Support.Bitset.t * Support.Bitset.t
(** [live_at_gcpoint t b i] is the live (temps, locals) during the call at
    instruction [i] of block [b]: live-out of the call minus the call's own
    result temp. Both sets are fresh copies the caller may mutate. *)

val close_uses : Ir.func -> Support.Bitset.t -> Support.Bitset.t -> unit
(** In-place transitive closure of the dead-base rule over a (temps, locals)
    pair of live sets, iterated until nothing changes. {!compute} applies it
    once per derived member, to get that member's closure. *)
