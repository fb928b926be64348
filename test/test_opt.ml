(* Optimizer pass tests: each pass preserves behaviour (checked by running
   programs compiled with and without it) and performs its transformation
   on a witness program. *)

module Ir = Mir.Ir

let check = Alcotest.check

let run_with_opts ?(heap = 2000) ?(checks = true) opts src =
  let options =
    { Driver.Compile.default_options with optimize = false; checks; heap_words = heap }
  in
  let prog = Driver.Compile.to_mir ~options src in
  Opt.Pipeline.optimize ~opts prog;
  let img = Driver.Compile.image_of_mir ~options prog in
  (Driver.Compile.run img).Driver.Compile.output

let no_opts =
  {
    Opt.Pipeline.copyprop = false;
    constfold = false;
    pathvar = false;
    cse = false;
    virtual_origin = false;
    strength = false;
    licm = false;
    dce = false;
  }

(* A program exercising arrays with nonzero bounds, loops, conditionals and
   allocation, whose output is sensitive to misoptimization. *)
let witness =
  "MODULE W;\n\
   TYPE A = REF ARRAY [5..20] OF INTEGER; L = REF RECORD v: INTEGER; n: REF INTEGER END;\n\
   VAR a: A; i, s: INTEGER;\n\
   PROCEDURE Churn(): INTEGER;\n\
   VAR l: L; k: INTEGER;\n\
   BEGIN\n\
   \  FOR k := 1 TO 5 DO l := NEW(L); l.v := k END;\n\
   \  RETURN l.v\n\
   END Churn;\n\
   BEGIN\n\
   \  a := NEW(A);\n\
   \  FOR i := 5 TO 20 DO a[i] := i * i END;\n\
   \  s := 0;\n\
   \  FOR i := 5 TO 20 DO\n\
   \    IF i MOD 2 = 0 THEN s := s + a[i] ELSE s := s - a[i] END;\n\
   \    s := s + Churn()\n\
   \  END;\n\
   \  PutInt(s); PutLn()\n\
   END W.\n"

let baseline = lazy (run_with_opts no_opts witness)

let same_behaviour name opts =
  let out = run_with_opts opts witness in
  check Alcotest.string name (Lazy.force baseline) out;
  (* Also under gc pressure. *)
  let out_small = run_with_opts ~heap:350 opts witness in
  check Alcotest.string (name ^ " under gc") (Lazy.force baseline) out_small

let test_each_pass_preserves () =
  same_behaviour "copyprop" { no_opts with copyprop = true };
  same_behaviour "constfold" { no_opts with constfold = true };
  same_behaviour "cse" { no_opts with cse = true };
  same_behaviour "virtual origin" { no_opts with virtual_origin = true };
  same_behaviour "strength" { no_opts with strength = true };
  same_behaviour "licm" { no_opts with licm = true };
  same_behaviour "dce" { no_opts with dce = true };
  same_behaviour "all" Opt.Pipeline.all_on

let count_instrs (p : Ir.program) =
  Array.fold_left
    (fun acc (f : Ir.func) ->
      acc
      + Array.fold_left
          (fun acc (b : Ir.block) -> acc + List.length b.Ir.instrs)
          0 f.Ir.blocks)
    0 p.Ir.funcs

let mir_with opts src =
  let options = { Driver.Compile.default_options with optimize = false; checks = false } in
  let prog = Driver.Compile.to_mir ~options src in
  Opt.Pipeline.optimize ~opts prog;
  prog

let test_constfold_folds () =
  let prog = mir_with { no_opts with constfold = true; copyprop = true; dce = true }
      "MODULE T; VAR x: INTEGER; BEGIN x := 2 + 3 * 4 END T." in
  let main = prog.Ir.funcs.(prog.Ir.main_fid) in
  let has_arith =
    Array.exists
      (fun (b : Ir.block) ->
        List.exists (fun i -> match i with Ir.Bin _ -> true | _ -> false) b.Ir.instrs)
      main.Ir.blocks
  in
  check Alcotest.bool "constants folded away" false has_arith

let test_dce_removes () =
  let src = "MODULE T; VAR x: INTEGER; BEGIN x := 1; x := 2; PutInt(x) END T." in
  let before = count_instrs (mir_with no_opts src) in
  let after = count_instrs (mir_with { no_opts with dce = true; copyprop = true } src) in
  check Alcotest.bool "dce shrinks code" true (after <= before)

let test_dce_keeps_bases () =
  (* The load of a base pointer must survive DCE while a derived value
     needs it, even if the load's result has no direct remaining use. *)
  let f : Ir.func =
    {
      Ir.fid = 0;
      fname = "h";
      params = [];
      nparams = 0;
      ret = false;
      ret_ptr = false;
      locals =
        [|
          {
            Ir.l_name = "p";
            l_size = 1;
            l_slot = Ir.Sptr;
            l_user = true;
            l_addr_taken = false;
            l_stores = 0;
          };
        |];
      blocks =
        [|
          {
            Ir.instrs =
              [
                Ir.Ld_local (0, 0, 0) (* base: no direct use below *);
                Ir.Bin (Ir.Add, 1, Ir.Otemp 0, Ir.Oimm 4);
                Ir.Call (None, Ir.Crt Ir.Rt_gc_check, []);
                Ir.Store (Ir.Otemp 1, 0, Ir.Oimm 9);
              ];
            term = Ir.Ret None;
          };
        |];
      temp_kinds =
        [| Ir.Kptr; Ir.Kderived { Mir.Deriv.plus = [ Mir.Deriv.Btemp 0 ]; minus = [] } |];
      ntemps = 2;
    }
  in
  let prog : Ir.program =
    {
      Ir.pname = "t";
      globals = [||];
      texts = [||];
      tdescs = [||];
      funcs = [| f |];
      main_fid = 0;
      alloc_sites = [||];
    }
  in
  ignore (Opt.Dce.run prog f);
  let still_there =
    List.exists
      (fun i -> match i with Ir.Ld_local (0, 0, 0) -> true | _ -> false)
      f.Ir.blocks.(0).Ir.instrs
  in
  check Alcotest.bool "base load survives DCE" true still_there

let test_strength_fires () =
  let src =
    "MODULE T; TYPE V = REF ARRAY OF INTEGER; VAR v: V; i: INTEGER;\n\
     BEGIN v := NEW(V, 50); FOR i := 0 TO 49 DO v[i] := i END END T."
  in
  let prog = mir_with Opt.Pipeline.all_on src in
  let main = prog.Ir.funcs.(prog.Ir.main_fid) in
  let has_sr_slot =
    Array.exists
      (fun (li : Ir.local_info) ->
        (match li.Ir.l_slot with Ir.Sderived _ -> true | _ -> false)
        && String.length li.Ir.l_name >= 3
        && String.sub li.Ir.l_name 0 3 = "$sr")
      main.Ir.locals
  in
  check Alcotest.bool "strength reduction created a marching pointer" true has_sr_slot

let test_virtual_origin_fires () =
  let src =
    "MODULE T; TYPE A = REF ARRAY [7..13] OF INTEGER; VAR a: A; i, x: INTEGER;\n\
     BEGIN a := NEW(A); i := 9; x := a[i]; PutInt(x) END T."
  in
  let prog = mir_with { no_opts with virtual_origin = true } src in
  let main = prog.Ir.funcs.(prog.Ir.main_fid) in
  (* The rewrite introduces an add of -(lo*esz) = -7. *)
  let has_origin =
    Array.exists
      (fun (b : Ir.block) ->
        List.exists
          (fun i ->
            match i with
            | Ir.Bin (Ir.Add, t, _, Ir.Oimm -7) -> (
                match Ir.temp_kind main t with Ir.Kderived _ -> true | _ -> false)
            | _ -> false)
          b.Ir.instrs)
      main.Ir.blocks
  in
  check Alcotest.bool "virtual origin introduced" true has_origin

let test_licm_hoists () =
  let src =
    "MODULE T; VAR i, s, a, b: INTEGER;\n\
     BEGIN a := 6; b := 7; s := 0; FOR i := 1 TO 10 DO s := s + a * b END;\n\
     PutInt(s) END T."
  in
  ignore (mir_with no_opts src);
  let after = mir_with { no_opts with licm = true } src in
  (* After LICM no multiply remains inside any loop body. *)
  let main = after.Ir.funcs.(after.Ir.main_fid) in
  let loops = Mir.Cfg.natural_loops main in
  List.iter
    (fun (l : Mir.Cfg.loop) ->
      Support.Ints.Iset.iter
        (fun b ->
          List.iter
            (fun i ->
              match i with
              | Ir.Bin (Ir.Mul, _, _, _) -> Alcotest.fail "multiply left inside loop"
              | _ -> ())
            main.Ir.blocks.(b).Ir.instrs)
        l.Mir.Cfg.body)
    loops;
  let out = run_with_opts { no_opts with licm = true } src in
  check Alcotest.string "licm output" "420" out

let test_pathvar_fires () =
  let options =
    { Driver.Compile.default_options with optimize = true; checks = false }
  in
  let prog = Driver.Compile.to_mir ~options Programs.Ambig_src.src in
  let count_ambig =
    Array.fold_left
      (fun acc (f : Ir.func) ->
        acc
        + Array.fold_left
            (fun acc (li : Ir.local_info) ->
              match li.Ir.l_slot with Ir.Sambig _ -> acc + 1 | _ -> acc)
            0 f.Ir.locals)
      0 prog.Ir.funcs
  in
  check Alcotest.int "one ambiguous slot" 1 count_ambig

let test_noalloc_analysis () =
  let src =
    "MODULE T;\n\
     TYPE L = REF INTEGER;\n\
     PROCEDURE Pure(x: INTEGER): INTEGER; BEGIN RETURN x + 1 END Pure;\n\
     PROCEDURE CallsPure(x: INTEGER): INTEGER; BEGIN RETURN Pure(x) END CallsPure;\n\
     PROCEDURE Allocs(): L; BEGIN RETURN NEW(L) END Allocs;\n\
     PROCEDURE CallsAllocs(): L; BEGIN RETURN Allocs() END CallsAllocs;\n\
     VAR l: L; x: INTEGER;\n\
     BEGIN x := CallsPure(1); l := CallsAllocs() END T."
  in
  let prog = Driver.Compile.to_mir src in
  let noalloc = Opt.Noalloc.analyze prog in
  let fid name =
    let f = Array.to_list prog.Ir.funcs |> List.find (fun (f : Ir.func) -> f.Ir.fname = name) in
    f.Ir.fid
  in
  check Alcotest.bool "Pure" true (noalloc (fid "Pure"));
  check Alcotest.bool "CallsPure" true (noalloc (fid "CallsPure"));
  check Alcotest.bool "Allocs" false (noalloc (fid "Allocs"));
  check Alcotest.bool "CallsAllocs" false (noalloc (fid "CallsAllocs"))

let test_noalloc_reduces_gcpoints () =
  let src =
    "MODULE T;\n\
     PROCEDURE Pure(x: INTEGER): INTEGER; BEGIN RETURN x * 2 END Pure;\n\
     VAR i, s: INTEGER;\n\
     BEGIN s := 0; FOR i := 1 TO 10 DO s := s + Pure(i) END; PutInt(s) END T."
  in
  let gcpoints options =
    let img = Driver.Compile.compile ~options src in
    Array.fold_left
      (fun acc (pm : Gcmaps.Rawmaps.proc_maps) -> acc + List.length pm.Gcmaps.Rawmaps.pm_gcpoints)
      0 img.Vm.Image.rawmaps
  in
  let base = gcpoints Driver.Compile.default_options in
  let refined =
    gcpoints { Driver.Compile.default_options with noalloc_analysis = true }
  in
  check Alcotest.bool "fewer gc-points with noalloc analysis" true (refined < base);
  (* Behaviour unchanged. *)
  let r =
    Driver.Compile.run_source
      ~options:{ Driver.Compile.default_options with noalloc_analysis = true }
      src
  in
  check Alcotest.string "output" "110" (String.trim r.Driver.Compile.output)

let test_loop_gcpoints () =
  (* A loop with no call in it gets an rt_gc_check inserted. *)
  let src =
    "MODULE T; VAR i, s: INTEGER; BEGIN s := 0; FOR i := 1 TO 100 DO s := s + i END;\n\
     PutInt(s) END T."
  in
  let count_checks options =
    let prog = Driver.Compile.to_mir ~options src in
    Array.fold_left
      (fun acc (f : Ir.func) ->
        acc
        + Array.fold_left
            (fun acc (b : Ir.block) ->
              acc
              + List.length
                  (List.filter
                     (fun i ->
                       match i with
                       | Ir.Call (_, Ir.Crt Ir.Rt_gc_check, _) -> true
                       | _ -> false)
                     b.Ir.instrs))
            0 f.Ir.blocks)
      0 prog.Ir.funcs
  in
  check Alcotest.int "no checks by default" 0
    (count_checks Driver.Compile.default_options);
  check Alcotest.bool "check inserted" true
    (count_checks { Driver.Compile.default_options with loop_gcpoints = true } > 0);
  (* A loop that already calls an allocating procedure gets none. *)
  let src2 =
    "MODULE T; TYPE L = REF INTEGER; VAR i: INTEGER; l: L;\n\
     BEGIN FOR i := 1 TO 10 DO l := NEW(L) END END T."
  in
  let prog2 =
    Driver.Compile.to_mir
      ~options:{ Driver.Compile.default_options with loop_gcpoints = true }
      src2
  in
  let inner_checks =
    Array.fold_left
      (fun acc (f : Ir.func) ->
        acc
        + Array.fold_left
            (fun acc (b : Ir.block) ->
              acc
              + List.length
                  (List.filter
                     (fun i ->
                       match i with
                       | Ir.Call (_, Ir.Crt Ir.Rt_gc_check, _) -> true
                       | _ -> false)
                     b.Ir.instrs))
            0 f.Ir.blocks)
      0 prog2.Ir.funcs
  in
  check Alcotest.int "allocating loop needs no extra gc-point" 0 inner_checks;
  (* Behaviour is unchanged and forced checks still compute the right sum. *)
  let r =
    Driver.Compile.run_source
      ~options:{ Driver.Compile.default_options with loop_gcpoints = true }
      src
  in
  check Alcotest.string "sum" "5050" (String.trim r.Driver.Compile.output)

let test_benchmarks_agree_all_passes () =
  (* The four benchmarks plus ambig must produce identical output with the
     full pipeline, each pass being exercised across them. *)
  List.iter
    (fun (name, src, heap) ->
      let base =
        Driver.Compile.run_source
          ~options:{ Driver.Compile.default_options with heap_words = heap }
          src
      in
      let opt =
        Driver.Compile.run_source
          ~options:
            { Driver.Compile.default_options with heap_words = heap; optimize = true }
          src
      in
      check Alcotest.string name base.Driver.Compile.output opt.Driver.Compile.output)
    [
      ("takl", Programs.Takl_src.src, 4000);
      ("destroy", Programs.Destroy_src.src, 9000);
      ("typereg", Programs.Typereg_src.src, 3000);
      ("fieldlist", Programs.Fieldlist_src.src, 2000);
      ("ambig", Programs.Ambig_src.src, 800);
    ]

(* A reduction of a program test_random generated: at O0, a join block
   visited before any of its predecessors used to get the bottom state, and
   raising it on a later visit kept barrier_elim's fixpoint from converging,
   so the compile never finished. *)
let barrier_elim_hang_src =
  "MODULE Rnd;\n\
   TYPE Node = RECORD v: INTEGER; n: List END; List = REF Node;\n\
   Arr = REF ARRAY OF INTEGER;\n\
   VAR g0, g1, g2, g3: INTEGER; head: List; arr: Arr;\n\
   PROCEDURE PushList(v: INTEGER);\n\
   VAR c: List;\n\
   BEGIN c := NEW(List); c.v := v; c.n := head; head := c END PushList;\n\
   PROCEDURE SumList(): INTEGER;\n\
   VAR s: INTEGER; l: List;\n\
   BEGIN s := 0; l := head;\n\
   WHILE l # NIL DO s := s + l.v; l := l.n END; RETURN s END SumList;\n\
   PROCEDURE H0(x: INTEGER): INTEGER;\n\
   BEGIN\n\
   \  IF g2 > 0 THEN\n\
   \  END;\n\
   \  IF 9 > 0 THEN\n\
   \  END\n\
   END H0;\n\
   PROCEDURE H1(x: INTEGER): INTEGER;\n\
   BEGIN\n\
   END H1;\n\
   PROCEDURE H2(x: INTEGER): INTEGER;\n\
   BEGIN\n\
   \  FOR iv := 1 TO 4 BY 3 DO\n\
   \  END\n\
   END H2;\n\
   BEGIN\n\
   \  arr := NEW(Arr, 8);\n\
   \  FOR iv := 1 TO 3 BY 3 DO\n\
   \    IF (6 - g1) > 0 THEN\n\
   \    END\n\
   \  END;\n\
   END Rnd.\n"

let test_barrier_elim_converges () =
  List.iter
    (fun optimize ->
      let options = { Driver.Compile.default_options with optimize; barrier_elim = true } in
      let r = Driver.Compile.run_source ~options barrier_elim_hang_src in
      check Alcotest.string
        (Printf.sprintf "output at O%d" (Bool.to_int optimize))
        "" r.Driver.Compile.output)
    [ false; true ]

let () =
  Alcotest.run "opt"
    [
      ( "preservation",
        [
          Alcotest.test_case "each pass preserves behaviour" `Quick
            test_each_pass_preserves;
          Alcotest.test_case "benchmarks agree opt/noopt" `Slow
            test_benchmarks_agree_all_passes;
        ] );
      ( "transformations",
        [
          Alcotest.test_case "constfold folds" `Quick test_constfold_folds;
          Alcotest.test_case "dce removes dead code" `Quick test_dce_removes;
          Alcotest.test_case "dce keeps derivation bases" `Quick test_dce_keeps_bases;
          Alcotest.test_case "strength reduction fires" `Quick test_strength_fires;
          Alcotest.test_case "virtual origin fires" `Quick test_virtual_origin_fires;
          Alcotest.test_case "licm hoists" `Quick test_licm_hoists;
          Alcotest.test_case "pathvar fires on ambig" `Quick test_pathvar_fires;
        ] );
      ( "gc-points",
        [
          Alcotest.test_case "noalloc analysis" `Quick test_noalloc_analysis;
          Alcotest.test_case "noalloc reduces gc-points" `Quick
            test_noalloc_reduces_gcpoints;
          Alcotest.test_case "loop gc-points" `Quick test_loop_gcpoints;
        ] );
      ( "barrier-elim",
        [
          Alcotest.test_case "fixpoint converges on join blocks" `Quick
            test_barrier_elim_converges;
        ] );
    ]
