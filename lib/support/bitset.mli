(** Fixed-width mutable bitsets, used for liveness vectors, the per-gc-point
    delta tables (one bit per ground-table entry) and register-pointer masks
    (one bit per hard register). *)

type t

val create : int -> t
(** [create n] is a bitset of width [n], all bits clear. *)

val length : t -> int

val set : t -> int -> unit
val clear : t -> int -> unit
val mem : t -> int -> bool

(** Clear every bit in place, without allocating. Used by the incremental
    collector to whiten the heap at cycle start: reallocating a heap-sized
    bitset per cycle puts an OCaml-GC allocation spike inside the first
    (budgeted) slice of every cycle. *)
val reset : t -> unit

val prev_set : t -> int -> int
(** [prev_set t i] is the greatest set index [<= i], or [-1] if bits
    [0..i] are all clear: an object-start bitmap resolves an ambiguous
    (possibly interior) heap word to the object that may contain it. *)

val is_empty : t -> bool
val count : t -> int

val equal : t -> t -> bool
val copy : t -> t

val union_into : dst:t -> t -> unit
(** [union_into ~dst src] sets every bit of [src] in [dst]; widths must match. *)

val iter : (int -> unit) -> t -> unit
(** [iter f t] applies [f] to each set bit index, ascending, skipping
    all-zero words. [f] must not mutate [t]: each word is read once, before
    its bits are visited, so whether a bit [f] sets or clears is seen is
    unspecified. Iterate over a {!copy} to mutate the set while walking it. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold f t init] folds [f] over the set bits in ascending order; the
    same rule as {!iter}: [f] must not mutate [t]. *)

val to_bytes : t -> Bytes.t
(** Pack into ⌈n/8⌉ bytes, bit [i] at byte [i/8], position [i mod 8] (LSB first). *)

val of_bytes : width:int -> Bytes.t -> int -> t * int
(** [of_bytes ~width b pos] unpacks a bitset of [width] bits starting at byte
    [pos]; returns the bitset and the position past it. *)

val pp : Format.formatter -> t -> unit
