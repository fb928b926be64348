(** Decoding of gc tables at collection time.

    The collector maps a return address (a code byte offset) to its
    gc-point tables by locating the enclosing procedure (the image's
    per-instruction procedure index) and scanning that procedure's
    table stream, accumulating the inter-gc-point distances — the
    paper's pc→table mapping (§5.2). "Identical to previous" descriptors are resolved
    during the scan.

    Decoding is {e total}: every read is bounds-checked, every count,
    register number, location offset and pc distance is range-checked,
    and any malformed stream surfaces as {!Table_corrupt} — never
    [Not_found], an unbounded scan, or silently decoded garbage. *)

exception Table_corrupt of { fid : int; offset : int; pos : int; reason : string }
(** A table stream failed to decode, or a pc→table lookup could not be
    answered. [fid] is the procedure (-1 if unknown), [offset] the code
    offset being looked up (-1 for whole-proc decodes), [pos] the stream
    byte position where decoding failed (-1 when not byte-specific). *)

val gcpoint_missing : fid:int -> code_offset:int -> exn
(** The {!Table_corrupt} raised when a looked-up code offset maps to no
    gc-point of its procedure (shared with the decode cache so both
    paths report misses identically). *)

type decoded_proc = {
  dp_frame_size : int; (* words below the saved-FP slot *)
  dp_nargs : int;
  dp_saves : (int * int) list; (* (callee-saved register, FP-relative slot) *)
  dp_ground : Loc.t array; (* empty under Full_info *)
}

val decode_proc :
  Encode.scheme ->
  Encode.options ->
  Encode.encoded_proc ->
  decoded_proc * Rawmaps.gcpoint list
(** Decode a whole procedure stream back into raw maps. Decoded gc-points
    carry [gp_index = -1] (indices are not serialized) and, under δ-main,
    their stack pointers in ground-table order.
    @raise Table_corrupt on any malformed stream. *)

val find :
  Encode.program_tables -> fid:int -> code_offset:int -> decoded_proc * Rawmaps.gcpoint
(** [find t ~fid ~code_offset] locates the tables for the gc-point whose
    call instruction starts at absolute byte [code_offset] inside procedure
    [fid]. This is the collector's hot path and is deliberately a linear
    scan of the procedure's stream — the decode cost the paper measures.
    @raise Table_corrupt if the offset is not a gc-point of that procedure
    or the stream is malformed. *)

val validate_proc :
  ?against:Rawmaps.proc_maps ->
  Encode.scheme ->
  Encode.options ->
  Encode.encoded_proc ->
  unit
(** Decode one procedure's stream end to end and check structural health:
    every byte must decode and be consumed (no trailing garbage), and the
    gc-point count must match the stream's metadata. With [against] (the
    compiler's raw maps) the decoded tables must also agree entry for
    entry — a redundancy check that catches corruption with a purely
    semantic effect, not just format violations.
    @raise Table_corrupt on the first failure. *)

val validate_tables : ?against:Rawmaps.proc_maps array -> Encode.program_tables -> unit
(** {!validate_proc} over every procedure of an image, run once at load
    time so the collector never meets a stream that cannot decode.
    @raise Table_corrupt on the first failure. *)
