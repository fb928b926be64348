(* Code generation tests: frame layout, register allocation constraints,
   addressing-mode folds, and the raw gc information captured at calls. *)

module Ir = Mir.Ir
module I = Machine.Insn
module L = Gcmaps.Loc

let check = Alcotest.check

let lower ?(checks = false) src = Mir.Lower.program ~checks (M3l.Typecheck.check_source src)

let select ?(opts = Codegen.Select.default_options) prog fid =
  Codegen.Select.func ~prog opts
    ~global_addr:(fun g -> 100 + g)
    ~text_addr:(fun t -> 200 + t)
    prog.Ir.funcs.(fid)

let func_named (p : Ir.program) name =
  match Array.find_opt (fun (f : Ir.func) -> f.Ir.fname = name) p.Ir.funcs with
  | Some f -> f.Ir.fid
  | None -> Alcotest.failf "no function %s" name

(* ------------------------------------------------------------------ *)
(* Frame layout                                                        *)
(* ------------------------------------------------------------------ *)

let mk_local ?(size = 1) ?(slot = Ir.Sscalar) name =
  {
    Ir.l_name = name;
    l_size = size;
    l_slot = slot;
    l_user = true;
    l_addr_taken = false;
    l_stores = 0;
  }

let test_frame_layout () =
  let locals =
    [| mk_local "p0"; mk_local "p1"; mk_local ~size:3 "arr"; mk_local "x" |]
  in
  let fr = Codegen.Frame.layout ~locals ~nparams:2 ~saves:[ 6; 7 ] ~nspills:2 in
  (* Parameters above the frame. *)
  check Alcotest.int "param 0 at FP+2" 2 (Codegen.Frame.local_off fr 0);
  check Alcotest.int "param 1 at FP+3" 3 (Codegen.Frame.local_off fr 1);
  (* Saves occupy FP-1 and FP-2; locals below. *)
  check Alcotest.bool "saves at -1,-2" true (fr.Codegen.Frame.save_offs = [ (6, -1); (7, -2) ]);
  let arr = Codegen.Frame.local_off fr 2 in
  let x = Codegen.Frame.local_off fr 3 in
  check Alcotest.bool "arr below saves" true (arr <= -3);
  check Alcotest.bool "x below arr" true (x < arr);
  (* No overlap: arr occupies [arr, arr+2]; x is 1 word. *)
  check Alcotest.bool "no overlap" true (x + 1 <= arr || x >= arr + 3);
  (* Spills below everything; frame size covers them. *)
  let s0 = Codegen.Frame.spill_off fr 0 and s1 = Codegen.Frame.spill_off fr 1 in
  check Alcotest.bool "spills distinct" true (s0 <> s1);
  check Alcotest.bool "frame covers spills" true
    (-fr.Codegen.Frame.frame_size <= min s0 s1)

let test_frame_word_order () =
  (* Words of an aggregate ascend in memory: &arr[0] < &arr[1]. *)
  let locals = [| mk_local ~size:4 "arr" |] in
  let fr = Codegen.Frame.layout ~locals ~nparams:0 ~saves:[] ~nspills:0 in
  let base = Codegen.Frame.local_off fr 0 in
  check Alcotest.int "frame size" 4 fr.Codegen.Frame.frame_size;
  check Alcotest.int "base is lowest" (-4) base

(* ------------------------------------------------------------------ *)
(* Register allocation                                                 *)
(* ------------------------------------------------------------------ *)

let test_callee_saved_across_calls () =
  (* A pointer live across a user call must be in a callee-saved register
     or spilled — never in a caller-saved register. *)
  let src =
    "MODULE T;\n\
     TYPE P = REF RECORD v: INTEGER END;\n\
     PROCEDURE Id(x: INTEGER): INTEGER; BEGIN RETURN x END Id;\n\
     PROCEDURE Go(): INTEGER;\n\
     VAR p: P; a: INTEGER;\n\
     BEGIN\n\
     p := NEW(P); p.v := 5;\n\
     a := Id(1);\n\
     RETURN p.v + a\n\
     END Go;\n\
     VAR r: INTEGER; BEGIN r := Go(); PutInt(r) END T."
  in
  let prog = lower src in
  let fid = func_named prog "Go" in
  let f = prog.Ir.funcs.(fid) in
  let liv = Mir.Liveness.compute f in
  let ra = Codegen.Regalloc.allocate f liv in
  (* Find temps of pointer kind live across the Id call: they must not sit
     in caller-saved registers. *)
  Array.iteri
    (fun b (_ : Ir.block) ->
      List.iteri
        (fun i instr ->
          match instr with
          | Ir.Call (_, Ir.Cuser _, _) ->
              let lt, _ = Mir.Liveness.live_at_gcpoint liv b i in
              Support.Bitset.iter
                (fun t ->
                  match ra.Codegen.Regalloc.assign.(t) with
                  | Codegen.Regalloc.Areg r ->
                      check Alcotest.bool
                        (Printf.sprintf "t%d live across call in callee-saved r%d" t r)
                        true
                        (Machine.Reg.is_callee_saved r)
                  | Codegen.Regalloc.Aspill _ -> ())
                lt
          | _ -> ())
        f.Ir.blocks.(b).Ir.instrs)
    f.Ir.blocks;
  ignore ra

let test_spill_when_pressured () =
  (* Twelve simultaneously live values cannot all fit in 10 allocatable
     registers: some must spill, and the program must still be correct. *)
  let src =
    "MODULE T;\n\
     VAR a, b, c, d, e, f, g, h, i, j, k, l, s: INTEGER;\n\
     BEGIN\n\
     a := 1; b := 2; c := 3; d := 4; e := 5; f := 6; g := 7; h := 8;\n\
     i := 9; j := 10; k := 11; l := 12;\n\
     s := a + b + c + d + e + f + g + h + i + j + k + l;\n\
     s := s + a * b * c * d;\n\
     PutInt(s)\n\
     END T."
  in
  let r = Driver.Compile.run_source ~collector:Driver.Compile.Precise ~threaded:false src in
  check Alcotest.string "sum with pressure" "102" (String.trim r.Driver.Compile.output)

(* ------------------------------------------------------------------ *)
(* Addressing-mode folds                                               *)
(* ------------------------------------------------------------------ *)

let count_ops pred (out : Codegen.Select.out_func) =
  Array.fold_left (fun acc i -> if pred i then acc + 1 else acc) 0
    out.Codegen.Select.of_code

let test_mem2_fold () =
  (* v[i] with a dynamic index produces base+offset adds whose sums are
     single-use: they fold into Mem2 operands. *)
  let src =
    "MODULE T;\n\
     TYPE V = REF ARRAY OF INTEGER;\n\
     VAR v: V; i, x: INTEGER;\n\
     BEGIN v := NEW(V, 10); i := 3; v[i] := 8; x := v[i]; PutInt(x) END T."
  in
  let prog = lower src in
  let out = select prog prog.Ir.main_fid in
  let mem2 =
    count_ops
      (fun insn ->
        match insn with
        | I.Mov (I.Mem2 _, _) | I.Mov (_, I.Mem2 _) -> true
        | _ -> false)
      out
  in
  check Alcotest.bool "mem2 operands used" true (mem2 >= 1);
  (* And the program still runs correctly. *)
  let r =
    Driver.Compile.run_source ~collector:Driver.Compile.Precise ~threaded:true
      ~options:{ Driver.Compile.default_options with checks = false } src
  in
  check Alcotest.string "output" "8" (String.trim r.Driver.Compile.output)

let test_defer_fold_restricted_vs_not () =
  let src = Programs.Indirect_src.src in
  let prog = lower ~checks:false src in
  let totals opts =
    Array.fold_left
      (fun (a, s) (f : Ir.func) ->
        let out = Codegen.Select.func ~prog opts ~global_addr:(fun g -> 100 + g)
            ~text_addr:(fun t -> 500 + t) f in
        (a + out.Codegen.Select.of_folds_applied, s + out.Codegen.Select.of_folds_suppressed))
      (0, 0) prog.Ir.funcs
  in
  let applied_r, suppressed_r = totals Codegen.Select.default_options in
  let applied_u, suppressed_u =
    totals { Codegen.Select.default_options with gc_restrict = false }
  in
  check Alcotest.bool "restricted suppresses some folds" true (suppressed_r > 0);
  check Alcotest.int "unrestricted suppresses none" 0 suppressed_u;
  check Alcotest.bool "unrestricted folds more" true (applied_u > applied_r)

(* ------------------------------------------------------------------ *)
(* Raw gc info at calls                                                *)
(* ------------------------------------------------------------------ *)

let gcinfo_of src fname =
  let prog = lower src in
  let out = select prog (func_named prog fname) in
  out.Codegen.Select.of_gcpoints

let test_gcinfo_ptr_local () =
  (* A pointer local live across a call appears as an FP-relative stack
     entry at that gc-point. *)
  let gps =
    gcinfo_of
      "MODULE T;\n\
       TYPE P = REF RECORD v: INTEGER END;\n\
       PROCEDURE Nop(); BEGIN END Nop;\n\
       PROCEDURE Go(): INTEGER;\n\
       VAR p: P;\n\
       BEGIN p := NEW(P); Nop(); RETURN p.v END Go;\n\
       BEGIN END T."
      "Go"
  in
  (* The Nop call site (second gc-point; the first is rt_alloc). *)
  check Alcotest.bool "two gc-points" true (List.length gps = 2);
  let nop_gp = List.nth gps 1 in
  let has_fp_entry =
    List.exists
      (function L.Lmem (L.FP, o) -> o < 0 | _ -> false)
      nop_gp.Codegen.Select.rg_stack_ptrs
  in
  check Alcotest.bool "frame slot in stack table" true has_fp_entry

let test_gcinfo_outgoing_ptr_arg () =
  (* A pointer passed by value appears as an AP-relative entry at the call. *)
  let gps =
    gcinfo_of
      "MODULE T;\n\
       TYPE P = REF RECORD v: INTEGER END;\n\
       PROCEDURE Use(q: P); BEGIN q.v := 1 END Use;\n\
       PROCEDURE Go();\n\
       VAR p: P;\n\
       BEGIN p := NEW(P); Use(p) END Go;\n\
       BEGIN END T."
      "Go"
  in
  let use_gp = List.nth gps 1 in
  let has_ap0 =
    List.exists
      (function L.Lmem (L.AP, 0) -> true | _ -> false)
      use_gp.Codegen.Select.rg_stack_ptrs
  in
  check Alcotest.bool "outgoing arg 0 in stack table (AP-relative)" true has_ap0

let test_gcinfo_derived_var_arg () =
  (* A VAR argument pointing into a heap object appears as a derivation
     entry targeting the AP slot, with a live base. *)
  let gps =
    gcinfo_of
      "MODULE T;\n\
       TYPE R = RECORD a, b: INTEGER END; P = REF R;\n\
       PROCEDURE Take(VAR x: INTEGER); BEGIN x := 1 END Take;\n\
       PROCEDURE Go();\n\
       VAR p: P;\n\
       BEGIN p := NEW(P); Take(p.b) END Go;\n\
       BEGIN END T."
      "Go"
  in
  let take_gp = List.nth gps 1 in
  let ap_deriv =
    List.find_opt
      (fun (d : Gcmaps.Rawmaps.deriv_entry) ->
        match d.Gcmaps.Rawmaps.target with L.Lmem (L.AP, 0) -> true | _ -> false)
      take_gp.Codegen.Select.rg_derivs
  in
  (match ap_deriv with
  | None -> Alcotest.fail "no derivation for the VAR argument slot"
  | Some d ->
      check Alcotest.bool "derivation has a base" true (d.Gcmaps.Rawmaps.plus <> []));
  (* The base itself must be traced at the same gc-point (dead-base rule):
     either a register in the register table or a stack slot. *)
  let base =
    match ap_deriv with
    | Some { Gcmaps.Rawmaps.plus = [ b ]; _ } -> b
    | _ -> Alcotest.fail "expected exactly one base"
  in
  let base_traced =
    match base with
    | L.Lreg r -> List.mem r take_gp.Codegen.Select.rg_reg_ptrs
    | L.Lmem _ -> List.mem base take_gp.Codegen.Select.rg_stack_ptrs
  in
  check Alcotest.bool "base is traced at the gc-point" true base_traced

(* The dead-base rule through a WITH alias: at the call [Bump(w.a[2])] the
   argument derives from [w], which derives from [p], and [p] is dead
   after the call. The call's gc-point must still list [p]'s slot. *)
let test_gcinfo_alias_base_kept () =
  List.iter
    (fun optimize ->
      let options = { Driver.Compile.default_options with optimize } in
      let prog = Driver.Compile.to_mir ~options Dead_base.src in
      let fid = func_named prog "Once" in
      let f = prog.Ir.funcs.(fid) in
      let p =
        match Array.find_index (fun (li : Ir.local_info) -> li.Ir.l_name = "p") f.Ir.locals with
        | Some l -> l
        | None -> Alcotest.fail "no local p"
      in
      let out = select prog fid in
      let slot = L.Lmem (L.FP, Codegen.Frame.local_off out.Codegen.Select.of_frame p) in
      let call =
        List.find
          (fun (gp : Codegen.Select.raw_gcpoint) ->
            List.exists
              (fun (d : Gcmaps.Rawmaps.deriv_entry) -> d.Gcmaps.Rawmaps.target = L.Lmem (L.AP, 0))
              gp.Codegen.Select.rg_derivs)
          out.Codegen.Select.of_gcpoints
      in
      check Alcotest.bool
        (Printf.sprintf "O%d: p's slot is a stack pointer at the call" (Bool.to_int optimize))
        true
        (List.mem slot call.Codegen.Select.rg_stack_ptrs))
    [ false; true ]

let test_gcinfo_scalars_excluded () =
  (* Scalar locals never appear in the pointer tables. *)
  let gps =
    gcinfo_of
      "MODULE T;\n\
       PROCEDURE Nop(); BEGIN END Nop;\n\
       PROCEDURE Go(): INTEGER;\n\
       VAR x, y: INTEGER;\n\
       BEGIN x := 1; y := 2; Nop(); RETURN x + y END Go;\n\
       BEGIN END T."
      "Go"
  in
  List.iter
    (fun (gp : Codegen.Select.raw_gcpoint) ->
      check Alcotest.int "no stack pointers" 0 (List.length gp.Codegen.Select.rg_stack_ptrs);
      check Alcotest.int "no register pointers" 0 (List.length gp.Codegen.Select.rg_reg_ptrs))
    gps

let test_gcinfo_noalloc_callee_has_no_gcpoint () =
  let src =
    "MODULE T;\n\
     PROCEDURE Pure(x: INTEGER): INTEGER; BEGIN RETURN x END Pure;\n\
     PROCEDURE Go(): INTEGER; BEGIN RETURN Pure(3) END Go;\n\
     BEGIN END T."
  in
  let prog = lower src in
  let noalloc = Opt.Noalloc.analyze prog in
  let out =
    select ~opts:{ Codegen.Select.default_options with noalloc } prog
      (func_named prog "Go")
  in
  check Alcotest.int "no gc-points in Go" 0 (List.length out.Codegen.Select.of_gcpoints)

(* ------------------------------------------------------------------ *)
(* Byte identity                                                       *)
(* ------------------------------------------------------------------ *)

(* Digest of everything code generation decides: the code array, every
   procedure's encoded table bytes, and the fold and barrier counts. *)
let image_digest (img : Vm.Image.t) =
  let b = Buffer.create 65536 in
  Array.iter
    (fun i -> Buffer.add_string b (Format.asprintf "%a\n" (fun fmt -> I.pp fmt) i))
    img.Vm.Image.code;
  Array.iter
    (fun (p : Gcmaps.Encode.encoded_proc) -> Buffer.add_bytes b p.Gcmaps.Encode.ep_stream)
    img.Vm.Image.tables.Gcmaps.Encode.procs;
  Buffer.add_string b
    (Printf.sprintf "folds %d/%d barriers %d/%d" img.Vm.Image.folds_applied
       img.Vm.Image.folds_suppressed img.Vm.Image.barriers img.Vm.Image.barriers_elided);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Corpus program, optimized, table scheme, byte packing, digest. Pinned
   from a build that ran the round-robin liveness analysis; a change to
   the compiler that is meant to alter code or tables updates them. *)
let pinned_digests =
  let open Gcmaps.Encode in
  [
    ("typereg", false, Delta_main, true, "b81aff557119617c140d0f2fb0173179");
    ("typereg", false, Delta_main, false, "0ebf31bea12da49f53314986c1d15739");
    ("typereg", false, Full_info, true, "7b6f17f7c3077f334a636efeb2e3620c");
    ("typereg", false, Full_info, false, "8d4fa32f0e4eb6bca51ad770c2a5789a");
    ("typereg", true, Delta_main, true, "1696f176d7e50d90a65ef84928e57d05");
    ("typereg", true, Delta_main, false, "33d3e39e331a880e9dcc6746564a401e");
    ("typereg", true, Full_info, true, "bdffa35999f46e9445ca1d6ad196e196");
    ("typereg", true, Full_info, false, "24c0bee0595b34f029a4fedcefef4c21");
    ("FieldList", false, Delta_main, true, "9ecf0c57cb0afac8bd00e708820cc094");
    ("FieldList", false, Delta_main, false, "245a02eeca4b0cb3f761d449a61a2820");
    ("FieldList", false, Full_info, true, "9c9e9331813ff030b58675cfc39cb905");
    ("FieldList", false, Full_info, false, "0eccef8893623c5f664d9fde20d93ea4");
    ("FieldList", true, Delta_main, true, "0e14397b382b2f9d6686382bdac6e4a4");
    ("FieldList", true, Delta_main, false, "5dd359cabdc90904322c6ddec420d87b");
    ("FieldList", true, Full_info, true, "791e2b7724b35343e921fb7e411bf3ae");
    ("FieldList", true, Full_info, false, "8db9ef73ccfafc5daae02020fa26347d");
    ("takl", false, Delta_main, true, "f4c0576def00f0929ae822fc92ea2c1a");
    ("takl", false, Delta_main, false, "d07cb674d559a329c1001b8e2c77520b");
    ("takl", false, Full_info, true, "9526b2f1291af2e2e9ec1655a79ea3b0");
    ("takl", false, Full_info, false, "24f1a92967dd2cf846f5dbebe148ef4b");
    ("takl", true, Delta_main, true, "4cdd234062439a2abcc4ffed5f87f654");
    ("takl", true, Delta_main, false, "c18d950cc2f5b0c9b1d192cd7e22f66d");
    ("takl", true, Full_info, true, "dad604ffcd9a79316f16c573aabd1745");
    ("takl", true, Full_info, false, "d754b656665804ed25227ee6bbfa07ad");
    ("destroy", false, Delta_main, true, "1451565a5ae11da9fce9f1ac3dfce509");
    ("destroy", false, Delta_main, false, "f60a9253a9ba2653a05395e83f6eac51");
    ("destroy", false, Full_info, true, "630adcd7ce20b8ec2a971f7e8222dbdb");
    ("destroy", false, Full_info, false, "f30bfaf92711df765b8979a2a2ea4c86");
    ("destroy", true, Delta_main, true, "188bfaf671a59dc886f21b3e2b6a1f43");
    ("destroy", true, Delta_main, false, "810211a5f23cb09405db09524476d25c");
    ("destroy", true, Full_info, true, "9de98deaff820c7e0677736eaea5d8c3");
    ("destroy", true, Full_info, false, "69fd30231379c3afef1e7ebd0d25e767");
    ("ambig", false, Delta_main, true, "a7d55c8bcdb49380cc09553a2870ff04");
    ("ambig", false, Delta_main, false, "02ff1320416804e7e9be33263a854d5d");
    ("ambig", false, Full_info, true, "dbaaa9cfa7014391cf629501081a882e");
    ("ambig", false, Full_info, false, "8a86f8b0087b06e2838c33451fb6c3de");
    ("ambig", true, Delta_main, true, "376c960cff699741fb8e376df6b8921d");
    ("ambig", true, Delta_main, false, "0830fe1389f1f21599fcc49c011bb903");
    ("ambig", true, Full_info, true, "edcf28f38e8c36236e30007b19c6ee66");
    ("ambig", true, Full_info, false, "a03f1ecb8aafa81d4732288fdf2b24d0");
    ("indirect", false, Delta_main, true, "56a4fc802873ddc8cc67ab5a74b14d54");
    ("indirect", false, Delta_main, false, "4a0b92905d3fbbaa46bad2310955b890");
    ("indirect", false, Full_info, true, "58d2074f5e6327a1df7d17d79c00b9ee");
    ("indirect", false, Full_info, false, "88435d37086aa4fa8855b602c2eb6a22");
    ("indirect", true, Delta_main, true, "2e4b4341c764949f543be23e3519da27");
    ("indirect", true, Delta_main, false, "cb232413530754f049dd562d76120551");
    ("indirect", true, Full_info, true, "0c3cf36b949cf811bc2cab581ecd2538");
    ("indirect", true, Full_info, false, "7b71e4ef2d47ea90c4905b41c07409b2");
  ]

let test_pinned_digests () =
  List.iter
    (fun (name, optimize, scheme, packing, want) ->
      let options =
        {
          Driver.Compile.default_options with
          optimize;
          scheme;
          table_opts = { Gcmaps.Encode.packing; previous = true };
        }
      in
      let img = Driver.Compile.compile ~options (List.assoc name Corpus.programs) in
      let what =
        Format.asprintf "%s O%d %a" name (Bool.to_int optimize) Gcmaps.Encode.pp_config
          (scheme, options.Driver.Compile.table_opts)
      in
      check Alcotest.string what want (image_digest img);
      Dead_base.check_described what img)
    pinned_digests

let () =
  Alcotest.run "codegen"
    [
      ( "frame",
        [
          Alcotest.test_case "layout" `Quick test_frame_layout;
          Alcotest.test_case "word order" `Quick test_frame_word_order;
        ] );
      ( "regalloc",
        [
          Alcotest.test_case "callee-saved across calls" `Quick
            test_callee_saved_across_calls;
          Alcotest.test_case "spilling" `Quick test_spill_when_pressured;
        ] );
      ( "folds",
        [
          Alcotest.test_case "mem2 double indexing" `Quick test_mem2_fold;
          Alcotest.test_case "defer restricted vs not" `Quick
            test_defer_fold_restricted_vs_not;
        ] );
      ( "gcinfo",
        [
          Alcotest.test_case "pointer local" `Quick test_gcinfo_ptr_local;
          Alcotest.test_case "outgoing pointer arg" `Quick test_gcinfo_outgoing_ptr_arg;
          Alcotest.test_case "derived VAR arg + dead-base" `Quick
            test_gcinfo_derived_var_arg;
          Alcotest.test_case "base of a VAR argument through a WITH alias" `Quick
            test_gcinfo_alias_base_kept;
          Alcotest.test_case "scalars excluded" `Quick test_gcinfo_scalars_excluded;
          Alcotest.test_case "noalloc callee" `Quick test_gcinfo_noalloc_callee_has_no_gcpoint;
        ] );
      ("identity", [ Alcotest.test_case "pinned image digests" `Quick test_pinned_digests ]);
    ]
