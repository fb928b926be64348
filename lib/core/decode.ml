(** Decoding of gc tables at collection time. The collector maps a return
    address (code byte offset) to its gc-point by locating the enclosing
    procedure and scanning that procedure's table stream, accumulating the
    inter-gc-point distances — the paper's pc→table mapping (§5.2).

    Decoding is {e total}: every read is bounds-checked, every count,
    register number, location offset and pc distance is range-checked, and
    any malformed stream surfaces as {!Table_corrupt} carrying the
    procedure, the code offset being looked up, and the stream byte where
    decoding failed — never [Not_found], an [Invalid_argument] escape, an
    unbounded scan, or silently decoded garbage. *)

open Support

exception Table_corrupt of { fid : int; offset : int; pos : int; reason : string }

let corrupt ~fid ~offset ~pos fmt =
  Printf.ksprintf (fun reason -> raise (Table_corrupt { fid; offset; pos; reason })) fmt

(** The error {!find} (and the decode cache) raise when a looked-up code
    offset maps to no gc-point: a pc→table lookup that cannot be answered
    means either a corrupt table stream or a corrupt return address. *)
let gcpoint_missing ~fid ~code_offset =
  Table_corrupt
    {
      fid;
      offset = code_offset;
      pos = -1;
      reason = "code offset is not a gc-point of this procedure";
    }

(* Sanity ceiling for frame sizes, argument counts and location offsets:
   far above anything a real procedure produces, low enough that a decoded
   value can never index memory out of range undetected. *)
let max_magnitude = 1 lsl 22

type reader = {
  data : Bytes.t;
  mutable pos : int;
  packed : bool;
  previous : bool;
  r_fid : int;
  r_offset : int; (* code offset being looked up; -1 for whole-proc decodes *)
}

let make_reader ?(fid = -1) ?(offset = -1) ~packed ~previous data =
  { data; pos = 0; packed; previous; r_fid = fid; r_offset = offset }

let bad r fmt = corrupt ~fid:r.r_fid ~offset:r.r_offset ~pos:r.pos fmt

let need r n =
  if r.pos < 0 || r.pos + n > Bytes.length r.data then
    bad r "truncated stream: need %d byte(s), %d remain" n (Bytes.length r.data - r.pos)

let get_word r =
  need r 4;
  let b i = Char.code (Bytes.get r.data (r.pos + i)) in
  let v = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
  r.pos <- r.pos + 4;
  (* sign-extend from 32 bits *)
  if v land 0x80000000 <> 0 then v - (1 lsl 32) else v

let get_int r =
  if r.packed then begin
    match Varint.decode r.data r.pos with
    | v, pos ->
        r.pos <- pos;
        v
    | exception Invalid_argument msg -> bad r "%s" msg
  end
  else get_word r

(* Element counts drive [List.init] loops; an adversarial count must not
   produce an unbounded scan or a huge allocation. Every encoded element
   consumes at least one byte (packed) or one word (plain), so the bytes
   remaining in the stream bound any honest count. *)
let get_count r ~what =
  let v = get_int r in
  if v < 0 then bad r "negative %s count (%d)" what v;
  let min_elt_bytes = if r.packed then 1 else 4 in
  let remaining = Bytes.length r.data - r.pos in
  (* divide, don't multiply: an adversarial count near max_int must not
     overflow the comparison into acceptance *)
  if v > remaining / min_elt_bytes then
    bad r "%s count %d exceeds the %d byte(s) left in the stream" what v remaining;
  v

let get_descriptor r =
  let v =
    if r.packed then begin
      need r 1;
      let v = Char.code (Bytes.get r.data r.pos) in
      r.pos <- r.pos + 1;
      v
    end
    else get_word r
  in
  if v land lnot 0x7f <> 0 then bad r "descriptor has bits outside the defined 7 (0x%x)" v;
  let field shift = (v lsr shift) land 3 in
  List.iter
    (fun (name, shift) ->
      let f = field shift in
      if f = 3 then bad r "descriptor %s field has undefined state 3" name;
      if f = Encode.tbl_same && not r.previous then
        bad r "descriptor %s field says identical-to-previous but Previous is off" name)
    [
      ("stack", Encode.desc_stack_shift);
      ("register", Encode.desc_reg_shift);
      ("derivation", Encode.desc_deriv_shift);
    ];
  v

let get_pc_delta r =
  if r.packed then begin
    need r 2;
    let hi = Char.code (Bytes.get r.data r.pos) in
    let lo = Char.code (Bytes.get r.data (r.pos + 1)) in
    r.pos <- r.pos + 2;
    (hi lsl 8) lor lo
  end
  else begin
    let v = get_word r in
    if v < 0 then bad r "negative inter-gc-point distance (%d)" v;
    v
  end

let get_bitmap r ~width =
  if r.packed then begin
    let nbytes = (width + 7) / 8 in
    need r nbytes;
    let bits, pos = Bitset.of_bytes ~width r.data r.pos in
    (* Bits past [width] carry no meaning; a set one is corruption the
       paper's format cannot express, not harmless padding. *)
    for i = width to (nbytes * 8) - 1 do
      if Char.code (Bytes.get r.data (r.pos + (i / 8))) land (1 lsl (i mod 8)) <> 0 then
        bad r "delta bitmap sets bit %d beyond its %d-entry ground table" i width
    done;
    r.pos <- pos;
    bits
  end
  else begin
    let nwords = (width + 31) / 32 in
    let bits = Bitset.create width in
    for wd = 0 to nwords - 1 do
      let v = get_word r in
      for i = 0 to 31 do
        let idx = (32 * wd) + i in
        if idx < width then begin
          if v land (1 lsl i) <> 0 then Bitset.set bits idx
        end
        else if v land (1 lsl i) <> 0 then
          bad r "delta bitmap sets bit %d beyond its %d-entry ground table" idx width
      done
    done;
    bits
  end

let check_reg r reg ~what =
  if reg < 0 || reg >= Machine.Reg.nregs then
    bad r "%s names register %d (machine has %d)" what reg Machine.Reg.nregs

let get_loc r =
  let l = Loc.of_int (get_int r) in
  (match l with
  | Loc.Lreg reg -> check_reg r reg ~what:"location"
  | Loc.Lmem (_, off) ->
      if off < -max_magnitude || off > max_magnitude then
        bad r "location offset %d out of range" off);
  l

let get_deriv_entry r : Rawmaps.deriv_entry =
  let target = get_loc r in
  let np = get_count r ~what:"plus-base" in
  let plus = List.init np (fun _ -> get_loc r) in
  let nm = get_count r ~what:"minus-base" in
  let minus = List.init nm (fun _ -> get_loc r) in
  { Rawmaps.target; plus; minus }

let get_derivs r =
  let n = get_count r ~what:"derivation" in
  List.init n (fun _ -> get_deriv_entry r)

let get_variants r : Rawmaps.variant list =
  let n = get_count r ~what:"variant" in
  List.init n (fun _ ->
      let path_loc = get_loc r in
      let ncases = get_count r ~what:"variant case" in
      let cases =
        List.init ncases (fun _ ->
            let value = get_int r in
            let d = get_deriv_entry r in
            (value, d))
      in
      { Rawmaps.path_loc; cases })

let get_reg_list r =
  let mask = get_int r in
  if mask land lnot ((1 lsl Machine.Reg.nregs) - 1) <> 0 then
    bad r "register mask 0x%x names registers beyond r%d" mask (Machine.Reg.nregs - 1);
  let rec go i acc = if i < 0 then acc else go (i - 1) (if mask land (1 lsl i) <> 0 then i :: acc else acc) in
  go (Machine.Reg.nregs - 1) []

(* ------------------------------------------------------------------ *)
(* Procedure streams                                                   *)
(* ------------------------------------------------------------------ *)

type decoded_proc = {
  dp_frame_size : int;
  dp_nargs : int;
  dp_saves : (int * int) list;
  dp_ground : Loc.t array; (* empty under Full_info *)
}

let decode_proc_header (scheme : Encode.scheme) r : decoded_proc * int =
  let frame_size = get_int r in
  if frame_size < 0 || frame_size > max_magnitude then
    bad r "frame size %d out of range" frame_size;
  let nargs = get_int r in
  if nargs < 0 || nargs > max_magnitude then bad r "argument count %d out of range" nargs;
  let nsaves = get_count r ~what:"register save" in
  let saves =
    List.init nsaves (fun _ ->
        let reg = get_int r in
        check_reg r reg ~what:"save entry";
        let off = get_int r in
        if off < -max_magnitude || off > max_magnitude then
          bad r "save slot offset %d out of range" off;
        (reg, off))
  in
  let ground =
    match scheme with
    | Encode.Delta_main ->
        let n = get_count r ~what:"ground-table" in
        Array.init n (fun _ -> get_loc r)
    | Encode.Full_info -> [||]
  in
  let ngc = get_count r ~what:"gc-point" in
  ({ dp_frame_size = frame_size; dp_nargs = nargs; dp_saves = saves; dp_ground = ground }, ngc)

(* Scan state while walking the gc-points of one procedure. *)
type scan_state = {
  mutable offset : int;
  mutable stack : Loc.t list;
  mutable regs : int list;
  mutable derivs : Rawmaps.deriv_entry list;
}

let decode_next_gcpoint ?(code_bytes = max_int) scheme r (dp : decoded_proc)
    (st : scan_state) : Rawmaps.gcpoint =
  let desc = get_descriptor r in
  let delta = get_pc_delta r in
  st.offset <- st.offset + delta;
  if st.offset > code_bytes then
    bad r "gc-point offset %d runs past the procedure's %d code bytes" st.offset code_bytes;
  let field shift = (desc lsr shift) land 3 in
  let stack =
    match field Encode.desc_stack_shift with
    | 0 -> []
    | 1 -> st.stack
    | _ -> (
        match scheme with
        | Encode.Delta_main ->
            let bits = get_bitmap r ~width:(Array.length dp.dp_ground) in
            Bitset.fold (fun i acc -> dp.dp_ground.(i) :: acc) bits [] |> List.rev
        | Encode.Full_info ->
            let n = get_count r ~what:"stack-pointer" in
            List.init n (fun _ -> get_loc r))
  in
  let regs =
    match field Encode.desc_reg_shift with
    | 0 -> []
    | 1 -> st.regs
    | _ -> get_reg_list r
  in
  let derivs =
    match field Encode.desc_deriv_shift with
    | 0 -> []
    | 1 -> st.derivs
    | _ -> get_derivs r
  in
  let variants =
    if desc land (1 lsl Encode.desc_variant_bit) <> 0 then get_variants r else []
  in
  st.stack <- stack;
  st.regs <- regs;
  st.derivs <- derivs;
  {
    Rawmaps.gp_index = -1;
    gp_offset = st.offset;
    stack_ptrs = stack;
    reg_ptrs = regs;
    derivs;
    variants;
  }

(* Decode a whole stream, returning the reader so callers can check how
   much was consumed. *)
let decode_proc_stream (scheme : Encode.scheme) (opts : Encode.options)
    (ep : Encode.encoded_proc) : decoded_proc * Rawmaps.gcpoint list * reader =
  let r =
    make_reader ~fid:ep.Encode.ep_fid ~packed:opts.Encode.packing
      ~previous:opts.Encode.previous ep.Encode.ep_stream
  in
  let dp, ngc = decode_proc_header scheme r in
  let st = { offset = 0; stack = []; regs = []; derivs = [] } in
  let gps =
    List.init ngc (fun _ ->
        decode_next_gcpoint ~code_bytes:ep.Encode.ep_code_bytes scheme r dp st)
  in
  (dp, gps, r)

(** Decode a whole procedure stream back into raw maps (used by tests for
    the encode/decode round-trip, by the decode cache, and by the
    full-table dump). *)
let decode_proc (scheme : Encode.scheme) (opts : Encode.options)
    (ep : Encode.encoded_proc) : decoded_proc * Rawmaps.gcpoint list =
  let dp, gps, _ = decode_proc_stream scheme opts ep in
  (dp, gps)

(* ------------------------------------------------------------------ *)
(* Return-address lookup                                               *)
(* ------------------------------------------------------------------ *)

(** [find t ~code_offset] locates the gc tables for the gc-point whose call
    instruction starts at absolute [code_offset]. Returns the procedure's
    decoded header (frame size, saves, ground) and the gc-point's tables.
    @raise Table_corrupt if [code_offset] is not a gc-point or the stream
    is malformed. *)
let c_finds = Telemetry.Metrics.counter "decode.finds"
let c_find_bytes = Telemetry.Metrics.counter "decode.bytes"

let find (t : Encode.program_tables) ~fid ~code_offset :
    decoded_proc * Rawmaps.gcpoint =
  if fid < 0 || fid >= Array.length t.Encode.procs then
    corrupt ~fid ~offset:code_offset ~pos:(-1) "procedure id %d out of range (program has %d)"
      fid (Array.length t.Encode.procs);
  let ep = t.Encode.procs.(fid) in
  let rel = code_offset - t.Encode.code_starts.(fid) in
  let r =
    make_reader ~fid ~offset:code_offset ~packed:t.Encode.opts.Encode.packing
      ~previous:t.Encode.opts.Encode.previous ep.Encode.ep_stream
  in
  let dp, ngc = decode_proc_header t.Encode.scheme r in
  let st = { offset = 0; stack = []; regs = []; derivs = [] } in
  let rec scan i =
    if i >= ngc then raise (gcpoint_missing ~fid ~code_offset)
    else
      let gp =
        decode_next_gcpoint ~code_bytes:ep.Encode.ep_code_bytes t.Encode.scheme r dp st
      in
      if gp.Rawmaps.gp_offset = rel then (dp, gp) else scan (i + 1)
  in
  let result = scan 0 in
  (* The paper's decode-work measure: bytes of table stream consumed to
     reach this gc-point (δ-main re-scans the procedure's stream). *)
  Telemetry.Metrics.incr c_finds;
  Telemetry.Metrics.incr ~by:r.pos c_find_bytes;
  result

(* ------------------------------------------------------------------ *)
(* Whole-image validation                                              *)
(* ------------------------------------------------------------------ *)

let sorted_locs ls = List.sort Loc.compare ls
let sorted_regs rs = List.sort compare rs

(* Compare a decoded gc-point against the compiler's raw maps, modulo the
   orderings serialization is allowed to lose: δ-main re-lists stack
   pointers in ground-table order and register masks sort ascending, but
   derivation order is semantic (the update relies on it) and must match. *)
let same_gcpoint (a : Rawmaps.gcpoint) (b : Rawmaps.gcpoint) =
  a.Rawmaps.gp_offset = b.Rawmaps.gp_offset
  && sorted_locs a.Rawmaps.stack_ptrs = sorted_locs b.Rawmaps.stack_ptrs
  && sorted_regs a.Rawmaps.reg_ptrs = sorted_regs b.Rawmaps.reg_ptrs
  && a.Rawmaps.derivs = b.Rawmaps.derivs
  && a.Rawmaps.variants = b.Rawmaps.variants

(** Decode one procedure's stream end to end and check structural health:
    the whole stream must be consumed (no trailing bytes). When [against]
    supplies the compiler's raw maps, the decoded tables must also agree
    with them entry for entry — a redundancy check that catches any
    corruption with a semantic effect, not just format violations.
    @raise Table_corrupt on the first failure. *)
let validate_proc ?against (scheme : Encode.scheme) (opts : Encode.options)
    (ep : Encode.encoded_proc) : unit =
  let fid = ep.Encode.ep_fid in
  let dp, gps, r = decode_proc_stream scheme opts ep in
  if r.pos <> Bytes.length ep.Encode.ep_stream then
    corrupt ~fid ~offset:(-1) ~pos:r.pos "%d trailing byte(s) after the last gc-point"
      (Bytes.length ep.Encode.ep_stream - r.pos);
  if List.length gps <> ep.Encode.ep_ngcpoints then
    corrupt ~fid ~offset:(-1) ~pos:r.pos "stream decodes %d gc-points, metadata says %d"
      (List.length gps) ep.Encode.ep_ngcpoints;
  match against with
  | None -> ()
  | Some (pm : Rawmaps.proc_maps) ->
      if dp.dp_frame_size <> pm.Rawmaps.pm_frame_size then
        corrupt ~fid ~offset:(-1) ~pos:(-1) "frame size decodes to %d, compiler emitted %d"
          dp.dp_frame_size pm.Rawmaps.pm_frame_size;
      if dp.dp_nargs <> pm.Rawmaps.pm_nargs then
        corrupt ~fid ~offset:(-1) ~pos:(-1) "argument count decodes to %d, compiler emitted %d"
          dp.dp_nargs pm.Rawmaps.pm_nargs;
      if dp.dp_saves <> pm.Rawmaps.pm_saves then
        corrupt ~fid ~offset:(-1) ~pos:(-1) "register save list disagrees with the compiler's";
      if List.length gps <> List.length pm.Rawmaps.pm_gcpoints then
        corrupt ~fid ~offset:(-1) ~pos:(-1) "stream decodes %d gc-points, compiler emitted %d"
          (List.length gps)
          (List.length pm.Rawmaps.pm_gcpoints);
      List.iteri
        (fun i (got, want) ->
          if not (same_gcpoint got want) then
            corrupt ~fid ~offset:want.Rawmaps.gp_offset ~pos:(-1)
              "gc-point %d decodes differently from the compiler's tables" i)
        (List.combine gps pm.Rawmaps.pm_gcpoints)

(** Validate every procedure's stream, once, at image-load time. With
    [against] (the image's raw maps) this is a full redundancy check of
    the encoded tables; without it, a structural (format-level) one. *)
let validate_tables ?against (t : Encode.program_tables) : unit =
  if Array.length t.Encode.code_starts <> Array.length t.Encode.procs then
    corrupt ~fid:(-1) ~offset:(-1) ~pos:(-1)
      "program tables list %d procedures but %d code starts"
      (Array.length t.Encode.procs)
      (Array.length t.Encode.code_starts);
  Array.iteri
    (fun fid ep ->
      let against = Option.map (fun pms -> pms.(fid)) against in
      validate_proc ?against t.Encode.scheme t.Encode.opts ep)
    t.Encode.procs
