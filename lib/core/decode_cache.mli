(** Memoized pc→table decoding.

    δ-main deliberately trades decode time for table space (§5.2):
    {!Decode.find} re-scans a procedure's immutable table stream on every
    lookup. This cache decodes each procedure once, materializes its
    gc-points into an offset-sorted array, and answers lookups by binary
    search. Residency is per-image full (one slot per procedure, bounded
    by a small multiple of the encoded table bytes); the cache is
    runtime-switchable so the paper-faithful uncached numbers remain
    reproducible. Counters: [decode.cache_hits], [decode.cache_misses],
    [decode.cache_bytes]; [decode.finds]/[decode.bytes] keep their
    uncached meaning (a cache hit scans zero stream bytes). *)

type t

val create : Encode.program_tables -> t
(** An empty cache over the given tables. Nothing is decoded until the
    first lookup of each procedure. *)

val set_enabled : bool -> unit
(** Global switch (all caches). Disabled ⇒ {!find} behaves exactly like
    {!Decode.find}, including its byte accounting. Default: enabled. *)

val enabled : unit -> bool

val find : t -> fid:int -> code_offset:int -> Decode.decoded_proc * Rawmaps.gcpoint
(** Memoizing equivalent of {!Decode.find} — structurally identical
    results. @raise Decode.Table_corrupt if [code_offset] is not a
    gc-point of procedure [fid], [fid] is out of range, or the stream is
    malformed (same error either side of the cache switch). *)

val tables : t -> Encode.program_tables

val resident_procs : t -> int
(** Procedures currently materialized. *)
