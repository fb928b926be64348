(** Serialization of gc tables, reproducing the paper's §5 design space:

    - {e organization}: [Delta_main] (per-procedure ground table of all stack
      pointer slots + per-gc-point liveness bitmaps — the paper's δ-main) or
      [Full_info] (complete stack-pointer list at every gc-point);
    - {e Packing}: the byte-level codec of Figs. 3–4 (continuation-bit
      varints) versus plain 32-bit words;
    - {e Previous}: a per-gc-point descriptor marks tables that are empty or
      identical to the table at the preceding gc-point, which are then
      omitted.

    All four combinations produce real byte streams that {!Decode} can read,
    so both the sizes (Table 2) and the decode cost (§6.3) are measurable. *)

open Support

type scheme = Delta_main | Full_info
type options = { packing : bool; previous : bool }

let pp_config fmt (scheme, { packing; previous }) =
  Format.fprintf fmt "%s%s%s"
    (match scheme with Delta_main -> "delta-main" | Full_info -> "full-info")
    (if previous then "+previous" else "")
    (if packing then "+packing" else "")

(* Descriptor bit fields (one descriptor per gc-point, paper §5.1-5.2). *)
let tbl_empty = 0
let tbl_same = 1
let tbl_present = 2
let desc_stack_shift = 0
let desc_reg_shift = 2
let desc_deriv_shift = 4
let desc_variant_bit = 6

(* ------------------------------------------------------------------ *)
(* Writers: packed bytes vs. plain 32-bit words                        *)
(* ------------------------------------------------------------------ *)

type writer = { buf : Buffer.t; packed : bool }

let make_writer ~packed = { buf = Buffer.create 256; packed }

(* A 32-bit word, big-endian (plain codec building block). *)
let put_word w v =
  Buffer.add_char w.buf (Char.chr ((v asr 24) land 0xff));
  Buffer.add_char w.buf (Char.chr ((v asr 16) land 0xff));
  Buffer.add_char w.buf (Char.chr ((v asr 8) land 0xff));
  Buffer.add_char w.buf (Char.chr (v land 0xff))

(* General integer: packed varint or one plain word. *)
let put_int w v = if w.packed then Varint.encode w.buf v else put_word w v

(* The per-gc-point descriptor: a single byte when packing (paper: "this
   information packs into 1 byte per gc-point"), else a word. *)
let put_descriptor w v = if w.packed then Buffer.add_char w.buf (Char.chr v) else put_word w v

(* pc distance to the previous gc-point: the paper's compiler assumes two
   bytes; plain uses a full word for the program counter entry. *)
let put_pc_delta w v =
  if w.packed then begin
    if v < 0 || v > 0xffff then invalid_arg "Encode.put_pc_delta: does not fit in 2 bytes";
    Buffer.add_char w.buf (Char.chr ((v asr 8) land 0xff));
    Buffer.add_char w.buf (Char.chr (v land 0xff))
  end
  else put_word w v

(* Delta bitmap over [width] ground entries: packed = ceil(width/8) bytes;
   plain = ceil(width/32) words. *)
let put_bitmap w (bits : Bitset.t) =
  let width = Bitset.length bits in
  let bytes = Bitset.to_bytes bits in
  if w.packed then Buffer.add_bytes w.buf bytes
  else begin
    let nwords = (width + 31) / 32 in
    let get i = if i < Bytes.length bytes then Char.code (Bytes.get bytes i) else 0 in
    for wd = 0 to nwords - 1 do
      let v =
        get (4 * wd)
        lor (get ((4 * wd) + 1) lsl 8)
        lor (get ((4 * wd) + 2) lsl 16)
        lor (get ((4 * wd) + 3) lsl 24)
      in
      put_word w v
    done
  end

(* ------------------------------------------------------------------ *)
(* Table payload encoding                                              *)
(* ------------------------------------------------------------------ *)

let put_loc w (l : Loc.t) = put_int w (Loc.to_int l)

let put_deriv_entry w (d : Rawmaps.deriv_entry) =
  put_loc w d.Rawmaps.target;
  put_int w (List.length d.Rawmaps.plus);
  List.iter (put_loc w) d.Rawmaps.plus;
  put_int w (List.length d.Rawmaps.minus);
  List.iter (put_loc w) d.Rawmaps.minus

let put_derivs w (ds : Rawmaps.deriv_entry list) =
  put_int w (List.length ds);
  List.iter (put_deriv_entry w) ds

let put_variants w (vs : Rawmaps.variant list) =
  put_int w (List.length vs);
  List.iter
    (fun (v : Rawmaps.variant) ->
      put_loc w v.Rawmaps.path_loc;
      put_int w (List.length v.Rawmaps.cases);
      List.iter
        (fun (value, d) ->
          put_int w value;
          put_deriv_entry w d)
        v.Rawmaps.cases)
    vs

let put_reg_mask w (regs : int list) =
  let mask = List.fold_left (fun m r -> m lor (1 lsl r)) 0 regs in
  put_int w mask

(* ------------------------------------------------------------------ *)
(* Ground table construction (δ-main)                                  *)
(* ------------------------------------------------------------------ *)

(** All distinct stack locations holding pointers at some gc-point of the
    procedure, sorted. This is the paper's per-procedure "main table". *)
let ground_table (pm : Rawmaps.proc_maps) : Loc.t array =
  let module S = Set.Make (struct
    type t = Loc.t

    let compare = Loc.compare
  end) in
  let s =
    List.fold_left
      (fun acc (g : Rawmaps.gcpoint) ->
        List.fold_left (fun acc l -> S.add l acc) acc g.Rawmaps.stack_ptrs)
      S.empty pm.Rawmaps.pm_gcpoints
  in
  Array.of_list (S.elements s)

let delta_bitmap (ground : Loc.t array) (ptrs : Loc.t list) : Bitset.t =
  let bits = Bitset.create (Array.length ground) in
  List.iter
    (fun l ->
      let found = ref false in
      Array.iteri (fun i g -> if Loc.equal g l then ( Bitset.set bits i; found := true )) ground;
      if not !found then invalid_arg "Encode.delta_bitmap: pointer not in ground table")
    ptrs;
  bits

(* ------------------------------------------------------------------ *)
(* Per-procedure encoding                                              *)
(* ------------------------------------------------------------------ *)

type encoded_proc = {
  ep_fid : int;
  ep_stream : Bytes.t;
  ep_code_bytes : int;
  ep_ngcpoints : int;
}

let encode_proc (scheme : scheme) (opts : options) (pm : Rawmaps.proc_maps) : encoded_proc =
  let w = make_writer ~packed:opts.packing in
  put_int w pm.Rawmaps.pm_frame_size;
  put_int w pm.Rawmaps.pm_nargs;
  put_int w (List.length pm.Rawmaps.pm_saves);
  List.iter
    (fun (reg, off) ->
      put_int w reg;
      put_int w off)
    pm.Rawmaps.pm_saves;
  let ground =
    match scheme with Delta_main -> ground_table pm | Full_info -> [||]
  in
  (match scheme with
  | Delta_main ->
      put_int w (Array.length ground);
      Array.iter (put_loc w) ground
  | Full_info -> ());
  put_int w (List.length pm.Rawmaps.pm_gcpoints);
  let prev_stack : Loc.t list option ref = ref None in
  let prev_regs : int list option ref = ref None in
  let prev_derivs : Rawmaps.deriv_entry list option ref = ref None in
  let prev_offset = ref 0 in
  List.iter
    (fun (g : Rawmaps.gcpoint) ->
      let state current prev =
        if current = [] then tbl_empty
        else if opts.previous && !prev = Some current then tbl_same
        else tbl_present
      in
      let st_stack = state g.Rawmaps.stack_ptrs prev_stack in
      let st_regs = state g.Rawmaps.reg_ptrs prev_regs in
      let st_derivs = state g.Rawmaps.derivs prev_derivs in
      let desc =
        (st_stack lsl desc_stack_shift)
        lor (st_regs lsl desc_reg_shift)
        lor (st_derivs lsl desc_deriv_shift)
        lor (if g.Rawmaps.variants <> [] then 1 lsl desc_variant_bit else 0)
      in
      put_descriptor w desc;
      put_pc_delta w (g.Rawmaps.gp_offset - !prev_offset);
      prev_offset := g.Rawmaps.gp_offset;
      if st_stack = tbl_present then begin
        match scheme with
        | Delta_main -> put_bitmap w (delta_bitmap ground g.Rawmaps.stack_ptrs)
        | Full_info ->
            put_int w (List.length g.Rawmaps.stack_ptrs);
            List.iter (put_loc w) g.Rawmaps.stack_ptrs
      end;
      if st_regs = tbl_present then put_reg_mask w g.Rawmaps.reg_ptrs;
      if st_derivs = tbl_present then put_derivs w g.Rawmaps.derivs;
      if g.Rawmaps.variants <> [] then put_variants w g.Rawmaps.variants;
      prev_stack := Some g.Rawmaps.stack_ptrs;
      prev_regs := Some g.Rawmaps.reg_ptrs;
      prev_derivs := Some g.Rawmaps.derivs)
    pm.Rawmaps.pm_gcpoints;
  {
    ep_fid = pm.Rawmaps.pm_fid;
    ep_stream = Buffer.to_bytes w.buf;
    ep_code_bytes = pm.Rawmaps.pm_code_bytes;
    ep_ngcpoints = List.length pm.Rawmaps.pm_gcpoints;
  }

(* ------------------------------------------------------------------ *)
(* Program-level tables                                                *)
(* ------------------------------------------------------------------ *)

type program_tables = {
  scheme : scheme;
  opts : options;
  procs : encoded_proc array; (* indexed by fid *)
  code_starts : int array; (* absolute code byte offset of each proc *)
}

let encode_program scheme opts (pms : Rawmaps.proc_maps array) (code_starts : int array) =
  let t =
    Telemetry.Trace.span ~cat:"compile" "encode.tables" (fun () ->
        {
          scheme;
          opts;
          procs = Array.map (encode_proc scheme opts) pms;
          code_starts;
        })
  in
  Telemetry.Metrics.add "encode.table_bytes"
    (Array.fold_left (fun acc ep -> acc + Bytes.length ep.ep_stream) 0 t.procs);
  t

let total_table_bytes t =
  Array.fold_left (fun acc ep -> acc + Bytes.length ep.ep_stream) 0 t.procs
