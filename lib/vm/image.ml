(** Executable images: code, data layout, procedure metadata and gc tables.

    Memory map (word addresses):
    {v
      0..7                  reserved (address 0 is NIL)
      globals_base..        global variables
      texts..               static TEXT literals (header, length, chars)
      stack_base..stack_top the stack (grows downward from stack_top)
      heap_base..           semispace 0
      heap_base+semi..      semispace 1
    v}

    The heap is deliberately the {e last} region: untagged heap pointers
    can never be rebased, so the only way the heap can grow at run time
    is for the store to be extended in place ({!Mem.realloc}) with every
    existing address — globals, stack, live objects — unchanged. The
    [semi_words]/[heap_base] fields describe the {e initial} geometry;
    the live geometry (which may have grown) lives on the
    interpreter state ({!Interp.t.from_words} etc.). *)

module I = Machine.Insn
module RM = Gcmaps.Rawmaps

type proc_info = {
  pi_fid : int;
  pi_name : string;
  pi_entry : int; (* code index of the Enter *)
  pi_code_end : int; (* one past the last instruction *)
  pi_frame_size : int;
  pi_nargs : int;
  pi_saves : (int * int) array; (* (reg, FP-relative offset) *)
}

type t = {
  code : I.t array;
  insn_offsets : int array; (* byte offset of each instruction; length n+1 *)
  code_bytes : int;
  procs : proc_info array; (* indexed by fid *)
  code_fid : int array; (* per-instruction owning fid: O(1) proc lookup *)
  main_fid : int;
  globals_base : int;
  global_addrs : int array;
  global_roots : int list; (* absolute addresses of pointer-holding global words *)
  text_addrs : int array;
  static_init : (int * int) list; (* (address, value) installed at reset *)
  tdescs : Rt.Typedesc.t array;
  layouts : Rt.Typedesc.layouts; (* flat layout table, indexed like tdescs *)
  text_tdesc : int; (* descriptor id for TEXT payloads *)
  heap_base : int;
  semi_words : int;
  stack_base : int;
  stack_top : int;
  total_words : int;
  tables : Gcmaps.Encode.program_tables; (* operational tables *)
  decode_cache : Gcmaps.Decode_cache.t; (* memoized pc→table lookups *)
  rawmaps : RM.proc_maps array; (* unencoded, for stats and tests *)
  folds_applied : int;
  folds_suppressed : int;
  barriers : int; (* generational write barriers in the code *)
  barriers_elided : int; (* pointer stores proven barrier-free at compile time *)
  gc_safe : bool; (* false when built with --no-gc-restrict (§6.2): the
                     tables may miss live pointers, so running a moving
                     collector over this image is unsound *)
  alloc_sites : Mir.Ir.alloc_site array; (* static allocation sites, index = id *)
}

type build_options = {
  heap_words : int; (* words per semispace *)
  stack_words : int;
  select : Codegen.Select.options;
  scheme : Gcmaps.Encode.scheme;
  table_opts : Gcmaps.Encode.options;
}

let default_build_options =
  {
    heap_words = 65536;
    stack_words = 16384;
    select = Codegen.Select.default_options;
    scheme = Gcmaps.Encode.Delta_main;
    table_opts = { Gcmaps.Encode.packing = true; previous = true };
  }

let build ?(opts = default_build_options) (prog : Mir.Ir.program) : t =
  (* 1. Lay out globals. *)
  let globals_base = 8 in
  let nglobals = Array.length prog.Mir.Ir.globals in
  let global_addrs = Array.make nglobals 0 in
  let cursor = ref globals_base in
  Array.iteri
    (fun i (g : Mir.Ir.global_info) ->
      global_addrs.(i) <- !cursor;
      cursor := !cursor + g.Mir.Ir.g_size)
    prog.Mir.Ir.globals;
  let global_roots =
    Array.to_list prog.Mir.Ir.globals
    |> List.mapi (fun i (g : Mir.Ir.global_info) ->
           List.map (fun o -> global_addrs.(i) + o) g.Mir.Ir.g_ptrs)
    |> List.concat
  in
  (* 2. Lay out static texts; make sure a TEXT type descriptor exists. *)
  let tdescs = Array.to_list prog.Mir.Ir.tdescs in
  let text_desc = Rt.Typedesc.Open { elt_size = 1; elt_ptr_offsets = [] } in
  let tdescs, text_tdesc =
    match List.find_index (fun d -> d = text_desc) tdescs with
    | Some i -> (Array.of_list tdescs, i)
    | None -> (Array.of_list (tdescs @ [ text_desc ]), List.length tdescs)
  in
  let ntexts = Array.length prog.Mir.Ir.texts in
  let text_addrs = Array.make ntexts 0 in
  let static_init = ref [] in
  Array.iteri
    (fun i s ->
      let addr = !cursor in
      text_addrs.(i) <- addr;
      static_init := (addr, text_tdesc) :: (addr + 1, String.length s) :: !static_init;
      String.iteri
        (fun j c -> static_init := (addr + 2 + j, Char.code c) :: !static_init)
        s;
      cursor := addr + 2 + String.length s)
    prog.Mir.Ir.texts;
  (* 3. Select code for every function. *)
  let outs =
    Telemetry.Timer.time ~cat:"compile" "codegen.select" (fun () ->
        Array.map
          (fun f ->
            Codegen.Select.func ~prog opts.select
              ~global_addr:(fun g -> global_addrs.(g))
              ~text_addr:(fun x -> text_addrs.(x))
              f)
          prog.Mir.Ir.funcs)
  in
  (* 4. Concatenate code, adjusting branch targets. *)
  let total_insns = Array.fold_left (fun acc o -> acc + Array.length o.Codegen.Select.of_code) 0 outs in
  let code = Array.make total_insns (I.Trap "pad") in
  let entries = Array.make (Array.length outs) 0 in
  let pos = ref 0 in
  Array.iteri
    (fun fid (o : Codegen.Select.out_func) ->
      let base = !pos in
      entries.(fid) <- base;
      Array.iteri
        (fun i insn ->
          code.(base + i) <-
            (match insn with
            | I.Jmp l -> I.Jmp (base + l)
            | I.Cbr (r, a, b, l) -> I.Cbr (r, a, b, base + l)
            | other -> other))
        o.Codegen.Select.of_code;
      pos := base + Array.length o.Codegen.Select.of_code)
    outs;
  let insn_offsets = Machine.Encode_insn.offsets code in
  let code_bytes = insn_offsets.(total_insns) in
  (* 5. Procedure metadata and raw gc maps (byte offsets now known). *)
  let procs =
    Array.mapi
      (fun fid (o : Codegen.Select.out_func) ->
        let entry = entries.(fid) in
        let code_end =
          if fid + 1 < Array.length outs then entries.(fid + 1) else total_insns
        in
        {
          pi_fid = fid;
          pi_name = o.Codegen.Select.of_name;
          pi_entry = entry;
          pi_code_end = code_end;
          pi_frame_size = o.Codegen.Select.of_frame.Codegen.Frame.frame_size;
          pi_nargs = o.Codegen.Select.of_frame.Codegen.Frame.nparams;
          pi_saves = Array.of_list o.Codegen.Select.of_frame.Codegen.Frame.save_offs;
        })
      outs
  in
  let rawmaps =
    Array.mapi
      (fun fid (o : Codegen.Select.out_func) ->
        let entry = entries.(fid) in
        let proc_byte_start = insn_offsets.(entry) in
        let code_end = procs.(fid).pi_code_end in
        let gcpoints =
          List.map
            (fun (rg : Codegen.Select.raw_gcpoint) ->
              {
                RM.gp_index = entry + rg.Codegen.Select.rg_item;
                gp_offset =
                  insn_offsets.(entry + rg.Codegen.Select.rg_item) - proc_byte_start;
                stack_ptrs = rg.Codegen.Select.rg_stack_ptrs;
                reg_ptrs = rg.Codegen.Select.rg_reg_ptrs;
                derivs = rg.Codegen.Select.rg_derivs;
                variants = rg.Codegen.Select.rg_variants;
              })
            o.Codegen.Select.of_gcpoints
        in
        {
          RM.pm_fid = fid;
          pm_name = o.Codegen.Select.of_name;
          pm_frame_size = o.Codegen.Select.of_frame.Codegen.Frame.frame_size;
          pm_nargs = o.Codegen.Select.of_frame.Codegen.Frame.nparams;
          pm_saves = o.Codegen.Select.of_frame.Codegen.Frame.save_offs;
          pm_code_bytes = insn_offsets.(code_end) - proc_byte_start;
          pm_gcpoints = gcpoints;
        })
      outs
  in
  let code_starts = Array.map (fun (pi : proc_info) -> insn_offsets.(pi.pi_entry)) procs in
  let tables = Gcmaps.Encode.encode_program opts.scheme opts.table_opts rawmaps code_starts in
  (* Load-time integrity check: every table stream must decode end to end
     and agree with the raw maps it was encoded from, so the collector
     never meets a stream that cannot decode. One-time cost, off the
     collection path. *)
  Gcmaps.Decode.validate_tables ~against:rawmaps tables;
  (* Per-instruction owning procedure, so return paths and the stack walk
     resolve code index → fid with one array load instead of a search. *)
  let code_fid = Array.make total_insns 0 in
  Array.iter
    (fun (pi : proc_info) ->
      for i = pi.pi_entry to pi.pi_code_end - 1 do
        code_fid.(i) <- pi.pi_fid
      done)
    procs;
  (* 6. Memory map: statics, then the stack, then the heap last (so the
     store can be extended without moving any existing address). *)
  let stack_base = ((!cursor + 7) / 8 * 8) + 8 in
  let stack_top = stack_base + opts.stack_words in
  let heap_base = (stack_top + 7) / 8 * 8 in
  let semi = opts.heap_words in
  {
    code;
    insn_offsets;
    code_bytes;
    procs;
    code_fid;
    main_fid = prog.Mir.Ir.main_fid;
    globals_base;
    global_addrs;
    global_roots;
    text_addrs;
    static_init = List.rev !static_init;
    tdescs;
    layouts = Rt.Typedesc.layouts tdescs;
    text_tdesc;
    heap_base;
    semi_words = semi;
    stack_base;
    stack_top;
    total_words = heap_base + (2 * semi);
    tables;
    decode_cache = Gcmaps.Decode_cache.create tables;
    rawmaps;
    folds_applied =
      Array.fold_left (fun a o -> a + o.Codegen.Select.of_folds_applied) 0 outs;
    folds_suppressed =
      Array.fold_left (fun a o -> a + o.Codegen.Select.of_folds_suppressed) 0 outs;
    barriers = Array.fold_left (fun a o -> a + o.Codegen.Select.of_barriers) 0 outs;
    barriers_elided =
      Array.fold_left (fun a o -> a + o.Codegen.Select.of_barriers_elided) 0 outs;
    gc_safe = opts.select.Codegen.Select.gc_restrict;
    alloc_sites = prog.Mir.Ir.alloc_sites;
  }

(** Fresh machine memory for this image: one flat word store covering the
    whole memory map (globals, text, both semispaces, stack), zeroed, with
    the static initialization (text literals and their headers) applied. *)
let init_mem (t : t) : Mem.t =
  let mem = Mem.create t.total_words in
  List.iter (fun (a, v) -> Mem.set mem a v) t.static_init;
  mem

(** Size in words of the object at [a], from its (trusted) header. *)
let[@inline] object_words t mem a =
  let size = t.layouts.Rt.Typedesc.sizes.(Mem.get mem a) in
  if size > 0 then size else Rt.Typedesc.words size ~length:(Mem.get mem (a + 1))

(** [f] applied to the address of every pointer field of the object at [a]
    (header trusted). *)
let iter_ptr_fields t mem a f =
  let d = Mem.get mem a in
  let size = t.layouts.Rt.Typedesc.sizes.(d) and offsets = t.layouts.Rt.Typedesc.offsets.(d) in
  if size > 0 then Array.iter (fun o -> f (a + o)) offsets
  else if Array.length offsets > 0 then
    for i = 0 to Mem.get mem (a + 1) - 1 do
      let base = a + Rt.Typedesc.open_header_words - (i * size) in
      Array.iter (fun o -> f (base + o)) offsets
    done

(** fid of the procedure containing a code index — a single array load
    against the per-instruction annotation built at image time (the old
    binary search ran on every [Leave] and every stack-walk frame). *)
let proc_of_code_index t idx =
  if idx < 0 || idx >= Array.length t.code_fid then
    Vm_error.fail "code index %d outside the image (0..%d)" idx (Array.length t.code_fid - 1)
  else t.code_fid.(idx)
