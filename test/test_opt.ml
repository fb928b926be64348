(* Optimizer pass tests: each pass preserves behaviour (checked by running
   programs compiled with and without it) and performs its transformation
   on a witness program. *)

module Ir = Mir.Ir

let check = Alcotest.check

(* Runs name their collector and engine: the precise collector on the
   threaded engine, except where a test says otherwise. *)
let run_source = Driver.Compile.run_source ~collector:Driver.Compile.Precise ~threaded:true

let no_opts =
  {
    Opt.Pipeline.nonnil = false;
    audit_checks = false;
    copyprop = false;
    constfold = false;
    pathvar = false;
    cse = false;
    virtual_origin = false;
    licm = false;
    dce = false;
    layout = false;
  }

(* [no_opts] compiles nothing through the pipeline: {!Opt.Promote}, which
   has no option, runs whenever the pipeline does, and the unoptimized
   reference must not include it. *)
let optimize opts prog = if opts <> no_opts then Opt.Pipeline.optimize ~opts prog

let run_with_opts ?(heap = 2000) ?(checks = true) opts src =
  let options =
    { Driver.Compile.default_options with optimize = false; checks; heap_words = heap }
  in
  let prog = Driver.Compile.to_mir ~options src in
  optimize opts prog;
  let img = Driver.Compile.image_of_mir ~options prog in
  (Driver.Compile.run ~collector:Driver.Compile.Precise ~threaded:true img).Driver.Compile.output

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
  same_behaviour "licm" { no_opts with licm = true };
  same_behaviour "dce" { no_opts with dce = true };
  same_behaviour "layout" { no_opts with layout = true };
  same_behaviour "nonnil" { no_opts with nonnil = true };
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
  optimize opts prog;
  prog

(* DIV and MOD of constants: run at O0, folded at O1, the same figures,
   and the Modula-3 rule (the remainder takes the divisor's sign). MIN
   keeps lowering from folding the DIV itself. *)
let prop_div_mod_folds =
  let gen =
    QCheck.Gen.(
      pair (int_range (-1_000_000) 1_000_000)
        (map (fun b -> if b = 0 then 1 else b) (int_range (-1000) 1000)))
  in
  QCheck.Test.make ~name:"DIV and MOD agree run and folded" ~count:40
    (QCheck.make ~print:(fun (a, b) -> Printf.sprintf "%d, %d" a b) gen)
    (fun (a, b) ->
      let src =
        Printf.sprintf
          "MODULE D; BEGIN PutInt(MIN(%d, %d) DIV (%d)); PutText(\" \"); \
           PutInt(MIN(%d, %d) MOD (%d)); PutLn() END D."
          a a b a a b
      in
      let run0 = run_with_opts no_opts src and run1 = run_with_opts Opt.Pipeline.all_on src in
      let q, r = Scanf.sscanf run0 "%d %d" (fun q r -> (q, r)) in
      let divides opts =
        let prog = mir_with opts src in
        List.length
          (List.filter
             (function Ir.Bin ((Ir.Div | Ir.Mod), _, _, _) -> true | _ -> false)
             (List.concat_map
                (fun (blk : Ir.block) -> blk.Ir.instrs)
                (Array.to_list prog.Ir.funcs.(prog.Ir.main_fid).Ir.blocks)))
      in
      run0 = run1
      && divides no_opts = 2
      && divides Opt.Pipeline.all_on = 0
      && a = (q * b) + r
      && abs r < abs b
      && (r = 0 || (r < 0) = (b < 0)))

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

let prog_of (f : Ir.func) : Ir.program =
  {
    Ir.pname = "t";
    globals = [||];
    texts = [||];
    tdescs = [||];
    funcs = [| f |];
    main_fid = 0;
    alloc_sites = [||];
  }

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
  ignore (Opt.Dce.run (prog_of f) f);
  let still_there =
    List.exists
      (fun i -> match i with Ir.Ld_local (0, 0, 0) -> true | _ -> false)
      f.Ir.blocks.(0).Ir.instrs
  in
  check Alcotest.bool "base load survives DCE" true still_there

(* The rules the corpus never decides: a derived temp whose base is not an
   operand of its definition, a derived slot's temp base, a trapping DIV
   whose result is dead, and a temp with two definitions. Everything here
   is needed, and the old fixpoint agrees. *)
let test_dce_rules () =
  let slot name l_slot =
    { Ir.l_name = name; l_size = 1; l_slot; l_user = true; l_addr_taken = false; l_stores = 1 }
  in
  let derived_of t = Ir.Kderived { Mir.Deriv.plus = [ Mir.Deriv.Btemp t ]; minus = [] } in
  let instrs =
    [
      Ir.Ld_local (0, 0, 0) (* base of t1, by t1's kind only *);
      Ir.Ld_local (1, 1, 0);
      Ir.Store (Ir.Otemp 1, 0, Ir.Oimm 9);
      Ir.Ld_local (2, 0, 0) (* base of slot 2, by the slot's kind only *);
      Ir.Mov (3, Ir.Oimm 0);
      Ir.Bin (Ir.Div, 4, Ir.Oimm 7, Ir.Otemp 3) (* traps; result dead *);
      Ir.Mov (6, Ir.Oimm 1);
      Ir.Mov (7, Ir.Oimm 2);
      Ir.Mov (5, Ir.Otemp 6);
      Ir.Mov (5, Ir.Otemp 7);
      Ir.St_local (0, 0, Ir.Otemp 5);
    ]
  in
  let f : Ir.func =
    {
      Ir.fid = 0;
      fname = "rules";
      params = [];
      nparams = 0;
      ret = false;
      ret_ptr = false;
      locals =
        [|
          slot "p" Ir.Sptr;
          slot "q" Ir.Sptr;
          slot "d" (Ir.Sderived { Mir.Deriv.plus = [ Mir.Deriv.Btemp 2 ]; minus = [] });
        |];
      blocks = [| { Ir.instrs; term = Ir.Ret None } |];
      temp_kinds =
        [| Ir.Kptr; derived_of 0; Ir.Kptr; Ir.Kscalar; Ir.Kscalar; Ir.Kscalar; Ir.Kscalar; Ir.Kscalar |];
      ntemps = 8;
    }
  in
  let g = Opt_oracle.copy f in
  let removed = Opt.Dce.run (prog_of f) f in
  check Alcotest.bool "nothing removed" false removed;
  check Alcotest.bool "the old fixpoint agrees" false (Opt_oracle.dce g);
  check Alcotest.int "every instruction kept" (List.length instrs) (List.length f.Ir.blocks.(0).Ir.instrs)

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
    run_source
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
    run_source
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
        Driver.Compile.run_source ~collector:Driver.Compile.Precise ~threaded:false
          ~options:{ Driver.Compile.default_options with heap_words = heap }
          src
      in
      let opt =
        run_source
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
      let r = run_source ~options barrier_elim_hang_src in
      check Alcotest.string
        (Printf.sprintf "output at O%d" (Bool.to_int optimize))
        "" r.Driver.Compile.output)
    [ false; true ]

(* Pass by pass at O1 over the corpus: the worklist DCE removes what the old
   fixpoint removes, and the shared loop analysis is never stale. *)
let test_oracles_corpus () =
  List.iter
    (fun (name, src) ->
      match Opt_oracle.check_source src with
      | None -> ()
      | Some d -> Alcotest.failf "%s: %s" name d)
    Corpus.programs

(* The loop passes share one analysis per function, so most queries reuse it. *)
let test_analysis_reused () =
  let computed = ref 0 and reused = ref 0 in
  List.iter
    (fun (_, src) ->
      let prog = Mir.Lower.program ~checks:true (M3l.Typecheck.check_source src) in
      Array.iter
        (fun f ->
          let seen = ref None in
          Opt.Pipeline.func ~wrap:(fun _ cfg pass -> seen := Some cfg; pass ()) prog f;
          Option.iter
            (fun (a : Mir.Cfg.analysis) ->
              computed := !computed + a.Mir.Cfg.computed;
              reused := !reused + a.Mir.Cfg.reused)
            !seen)
        prog.Ir.funcs)
    Corpus.programs;
  check Alcotest.bool
    (Printf.sprintf "%d reused, %d computed" !reused !computed)
    true
    (!computed > 0 && !reused > 2 * !computed)

(* Layout keeps the roots at every call of the corpus at O1, and leaves no
   jump to a jump. test_random runs the same check on its programs. *)
let test_layout_corpus () =
  List.iter
    (fun (name, src) ->
      match Layout_check.check_source src with
      | None -> ()
      | Some d -> Alcotest.failf "%s: %s" name d)
    Corpus.programs

(* Loops whose header branches into the body on the false edge: the
   rotated copy must negate the test. Every latch is rotated, so each
   remaining jump falls through. *)
let test_layout_rotates_negated () =
  let src =
    "MODULE W;\n\
     VAR i, s: INTEGER; done: BOOLEAN;\n\
     BEGIN\n\
     \  i := 0; s := 0; done := FALSE;\n\
     \  WHILE NOT done DO\n\
     \    i := i + 1; s := s + i;\n\
     \    IF i >= 10 THEN done := TRUE END\n\
     \  END;\n\
     \  WHILE NOT (i < 3) DO i := i - 2; s := s + 1 END;\n\
     \  PutInt(s); PutText(\" \"); PutInt(i); PutLn()\n\
     END W.\n"
  in
  check Alcotest.string "laid out" "59 2\n" (run_with_opts Opt.Pipeline.all_on src);
  check Alcotest.string "not laid out" "59 2\n"
    (run_with_opts { Opt.Pipeline.all_on with layout = false } src);
  let prog = mir_with Opt.Pipeline.all_on src in
  let main = prog.Ir.funcs.(prog.Ir.main_fid) in
  Array.iteri
    (fun b (blk : Ir.block) ->
      match blk.Ir.term with
      | Ir.Jmp l -> check Alcotest.int "every jump falls through" (b + 1) l
      | Ir.Cjmp _ | Ir.Ret _ | Ir.Unreachable | Ir.Trap _ -> ())
    main.Ir.blocks

(* The programs mmbench's takl and destroy workloads run, on their heaps.
   Before layout, unconditional jumps were 18.4% and 11.5% of what they
   executed; the counts are deterministic. *)
let test_layout_jump_ceiling () =
  List.iter
    (fun (name, heap_words, src) ->
      let options = { Driver.Compile.default_options with optimize = true; heap_words } in
      let img = Driver.Compile.compile ~options src in
      let st = Vm.Interp.create img in
      Gc.Cheney.install st;
      Vm.Interp.reset st;
      let jumps = ref 0 in
      while not st.Vm.Interp.halted do
        (match img.Vm.Image.code.(st.Vm.Interp.pc) with
        | Machine.Insn.Jmp _ -> incr jumps
        | _ -> ());
        Vm.Interp.step st
      done;
      let insns = st.Vm.Interp.icount in
      check Alcotest.bool
        (Printf.sprintf "%s: %d of %d executed instructions are jumps" name !jumps insns)
        true
        (100 * !jumps <= 3 * insns))
    [
      ( "takl",
        1200,
        Programs.Takl_src.make ~n1:14 ~n2:10 ~n3:4 ~repeats:5 ~ballast:100 );
      ( "destroy",
        8000,
        Programs.Destroy_src.make ~branch:4 ~depth:5 ~replace_depth:2 ~iterations:2000 );
    ]

(* A WITH alias writes a local through its address. Neither CSE (a load
   after the store) nor LICM (a load in the loop that stores) may reuse
   a load of the local from before the store. *)
let test_alias_store_invalidates () =
  let src =
    "MODULE W;\n\
     TYPE R = RECORD a: INTEGER END;\n\
     PROCEDURE P(): INTEGER;\n\
     VAR r: R; x: INTEGER;\n\
     BEGIN r.a := 1; x := r.a; WITH w = r DO w.a := 2 END; RETURN r.a * 10 + x END P;\n\
     PROCEDURE Q(): INTEGER;\n\
     VAR r: R; i, s: INTEGER;\n\
     BEGIN\n\
     \  r.a := 1; s := 0;\n\
     \  FOR i := 1 TO 3 DO s := s + r.a; WITH w = r DO w.a := w.a + 1 END END;\n\
     \  RETURN s\n\
     END Q;\n\
     BEGIN PutInt(P()); PutText(\" \"); PutInt(Q()); PutLn() END W.\n"
  in
  check Alcotest.string "O0" "21 6\n" (run_with_opts no_opts src);
  check Alcotest.string "O1" "21 6\n" (run_with_opts Opt.Pipeline.all_on src);
  check Alcotest.string "cse alone" "21 6\n" (run_with_opts { no_opts with cse = true } src);
  check Alcotest.string "licm alone" "21 6\n" (run_with_opts { no_opts with licm = true } src);
  check Alcotest.string "pathvar alone" "21 6\n"
    (run_with_opts { no_opts with pathvar = true } src);
  (* An array indexed by a variable is read and written through its
     address, at a constant index by name: a store either way must end
     the reuse of a load the other way, for a local and for a global
     array, in straight-line code (CSE) and in a loop header (LICM). *)
  let arrays =
    "MODULE V;\n\
     VAR g: ARRAY [0..3] OF INTEGER;\n\
     PROCEDURE LocalVar(i: INTEGER): INTEGER;\n\
     VAR a: ARRAY [0..3] OF INTEGER; x: INTEGER;\n\
     BEGIN a[0] := 1; x := a[i]; a[0] := 2; RETURN x * 10 + a[i] END LocalVar;\n\
     PROCEDURE LocalConst(i: INTEGER): INTEGER;\n\
     VAR a: ARRAY [0..3] OF INTEGER; x: INTEGER;\n\
     BEGIN a[0] := 1; x := a[0]; a[i] := 2; RETURN x * 10 + a[0] END LocalConst;\n\
     PROCEDURE GlobalVar(i: INTEGER): INTEGER;\n\
     VAR x: INTEGER;\n\
     BEGIN g[0] := 1; x := g[i]; g[0] := 2; RETURN x * 10 + g[i] END GlobalVar;\n\
     PROCEDURE GlobalConst(i: INTEGER): INTEGER;\n\
     VAR x: INTEGER;\n\
     BEGIN g[0] := 1; x := g[0]; g[i] := 2; RETURN x * 10 + g[0] END GlobalConst;\n\
     PROCEDURE LocalLoop(i: INTEGER): INTEGER;\n\
     VAR a: ARRAY [0..3] OF INTEGER; n: INTEGER;\n\
     BEGIN a[0] := 1; n := 0; WHILE (a[i] < 5) AND (n < 9) DO a[0] := a[0] + 1; n := n + 1 END;\n\
     \  RETURN n END LocalLoop;\n\
     PROCEDURE GlobalVarLoop(i: INTEGER): INTEGER;\n\
     VAR n: INTEGER;\n\
     BEGIN g[0] := 1; n := 0; WHILE (g[i] < 5) AND (n < 9) DO g[0] := g[0] + 1; n := n + 1 END;\n\
     \  RETURN n END GlobalVarLoop;\n\
     PROCEDURE GlobalConstLoop(i: INTEGER): INTEGER;\n\
     VAR n: INTEGER;\n\
     BEGIN g[0] := 1; n := 0; WHILE (g[0] < 5) AND (n < 9) DO g[i] := g[i] + 1; n := n + 1 END;\n\
     \  RETURN n END GlobalConstLoop;\n\
     BEGIN\n\
     \  PutInt(LocalVar(0)); PutInt(LocalConst(0)); PutInt(GlobalVar(0)); PutInt(GlobalConst(0));\n\
     \  PutInt(LocalLoop(0)); PutInt(GlobalVarLoop(0)); PutInt(GlobalConstLoop(0)); PutLn()\n\
     END V.\n"
  in
  List.iter
    (fun checks ->
      List.iter
        (fun (name, opts) ->
          check Alcotest.string
            (Printf.sprintf "arrays, %s, checks=%b" name checks)
            "12121212444\n" (run_with_opts ~checks opts arrays))
        [
          ("O0", no_opts);
          ("O1", Opt.Pipeline.all_on);
          ("cse alone", { no_opts with cse = true });
          ("licm alone", { no_opts with licm = true });
          ("pathvar alone", { no_opts with pathvar = true });
        ])
    [ true; false ]

(* A loop pass may treat a slot as invariant only when nothing else in the
   loop writes the slot: [i] also steps through a WITH alias, and [pa] is
   stored in the loop whose IF selects it. *)
let test_loop_writes_respected () =
  let stepped =
    "MODULE S;\n\
     TYPE Arr = REF ARRAY [0..7] OF INTEGER;\n\
     VAR p: Arr; k: INTEGER;\n\
     PROCEDURE Sum(a: Arr): INTEGER;\n\
     VAR i, s: INTEGER;\n\
     BEGIN\n\
     \  i := 0; s := 0;\n\
     \  WHILE i < 8 DO s := s + a[i]; WITH w = i DO w := w + 1 END; i := i + 1 END;\n\
     \  RETURN s\n\
     END Sum;\n\
     BEGIN\n\
     \  p := NEW(Arr);\n\
     \  FOR k := 0 TO 7 DO p[k] := k END;\n\
     \  PutInt(Sum(p)); PutLn()\n\
     END S.\n"
  and reselected =
    "MODULE S;\n\
     TYPE Arr = REF ARRAY [0..3] OF INTEGER;\n\
     VAR p, q: Arr; k: INTEGER;\n\
     PROCEDURE Pass(pa, qa: Arr; inv: BOOLEAN): INTEGER;\n\
     VAR i, s: INTEGER;\n\
     BEGIN\n\
     \  s := 0;\n\
     \  FOR i := 0 TO 3 DO\n\
     \    IF inv THEN s := s + pa[i] ELSE s := s + qa[i] END;\n\
     \    pa := qa\n\
     \  END;\n\
     \  RETURN s\n\
     END Pass;\n\
     BEGIN\n\
     \  p := NEW(Arr); q := NEW(Arr);\n\
     \  FOR k := 0 TO 3 DO p[k] := 1; q[k] := 10 END;\n\
     \  PutInt(Pass(p, q, TRUE)); PutLn()\n\
     END S.\n"
  in
  List.iter
    (fun (name, src, want) ->
      List.iter
        (fun checks ->
          List.iter
            (fun (level, opts) ->
              check Alcotest.string
                (Printf.sprintf "%s, %s, checks=%b" name level checks)
                want (run_with_opts ~checks opts src))
            [
              ("O1", Opt.Pipeline.all_on);
              ("pathvar alone", { no_opts with pathvar = true });
            ])
        [ true; false ])
    [ ("induction variable", stepped, "12\n"); ("selected base", reselected, "31\n") ]

(* A function to ask the alias rules about: local 0 is a two-word slot
   whose address is never taken, local 1's is taken; global 0's address
   is never taken, global 1's is. Temps 0-3 are a tidy pointer, a derived
   value, a stack address and a scalar. *)
let effects_prog () =
  let local name addr_taken =
    {
      Ir.l_name = name;
      l_size = 2;
      l_slot = Ir.Sscalar;
      l_user = true;
      l_addr_taken = addr_taken;
      l_stores = 0;
    }
  in
  let f : Ir.func =
    {
      Ir.fid = 0;
      fname = "h";
      params = [];
      nparams = 0;
      ret = false;
      ret_ptr = false;
      locals = [| local "tracked" false; local "taken" true |];
      blocks = [| { Ir.instrs = []; term = Ir.Ret None } |];
      temp_kinds =
        [|
          Ir.Kptr; Ir.Kderived (Mir.Deriv.of_base (Mir.Deriv.Btemp 0)); Ir.Kstack; Ir.Kscalar;
        |];
      ntemps = 4;
    }
  in
  let global name addr_taken =
    { Ir.g_name = name; g_size = 1; g_ptrs = []; g_addr_taken = addr_taken }
  in
  ( {
      Ir.pname = "effects";
      globals = [| global "plain" false; global "addressed" true |];
      texts = [||];
      tdescs = [||];
      funcs = [| f |];
      main_fid = 0;
      alloc_sites = [||];
    },
    f )

(* Ir.may_write, writer by location. The columns: a word read through a
   tidy pointer, a stack address and a derived address; words 0 and 1 of
   the tracked local; word 0 of the address-taken local; the unaddressed
   and the addressed global. *)
let test_may_write_table () =
  let prog, f = effects_prog () in
  let ptr, der, stk, v = (Ir.Otemp 0, Ir.Otemp 1, Ir.Otemp 2, Ir.Otemp 3) in
  let alloc = Ir.Crt (Ir.Rt_alloc 0) in
  let locs =
    [
      Ir.Lmem (ptr, 1); Ir.Lmem (stk, 0); Ir.Lmem (der, 0); Ir.Lslot (0, 0); Ir.Lslot (0, 1);
      Ir.Lslot (1, 0); Ir.Lglobal (0, 0); Ir.Lglobal (1, 0);
    ]
  in
  let rows =
    [
      ("St_local tracked", Ir.St_local (0, 0, v), "00010000");
      ("St_local address-taken", Ir.St_local (1, 0, v), "01100100");
      ("St_global unaddressed", Ir.St_global (0, 0, v), "00000010");
      ("St_global addressed", Ir.St_global (1, 0, v), "01100001");
      ("Store via Kptr", Ir.Store (ptr, 1, v), "10100000");
      ("Store via Kderived", Ir.Store (der, 0, v), "11100101");
      ("Store via Kstack", Ir.Store (stk, 0, v), "01100101");
      ("Store via immediate", Ir.Store (Ir.Oimm 64, 0, v), "11100101");
      ("Store_nb via Kptr", Ir.Store_nb (ptr, 1, v), "10100000");
      ("Store_nb via Kderived", Ir.Store_nb (der, 0, v), "11100101");
      ("Store_nb via Kstack", Ir.Store_nb (stk, 0, v), "01100101");
      ("Store_nb via immediate", Ir.Store_nb (Ir.Oimm 64, 0, v), "11100101");
      ("Call gc-point (procedure)", Ir.Call (None, Ir.Cuser 0, []), "11100111");
      ("Call gc-point (allocation)", Ir.Call (Some 0, alloc, [ Ir.Oimm 0 ]), "11100111");
      ("Call non-allocating runtime routine", Ir.Call (None, Ir.Crt Ir.Rt_put_int, [ v ]), "00000000");
      ("Mov", Ir.Mov (3, v), "00000000");
    ]
  in
  List.iter
    (fun (name, i, want) ->
      let got =
        String.concat "" (List.map (fun l -> if Ir.may_write prog f i l then "1" else "0") locs)
      in
      check Alcotest.string name want got;
      check Alcotest.bool (name ^ ": writes") (String.contains want '1') (Ir.writes i))
    rows

(* Mir.Cfg.forward on a loop and an unreachable block, with the set of
   temps defined on every path as its facts: the loop header meets the
   entry with the back edge, an edge the hook says is never taken
   constrains nothing, and the unreachable block gets no state. *)
let test_forward_solver () =
  let _, f = effects_prog () in
  let def d = Ir.Mov (d, Ir.Oimm 0) in
  f.Ir.blocks <-
    [|
      { Ir.instrs = [ def 0 ]; term = Ir.Jmp 1 };
      { Ir.instrs = []; term = Ir.Cjmp (Ir.Req, Ir.Otemp 0, Ir.Oimm 0, 2, 3) };
      { Ir.instrs = [ def 1 ]; term = Ir.Jmp 1 };
      { Ir.instrs = [ def 2 ]; term = Ir.Jmp 5 };
      { Ir.instrs = [ def 3 ]; term = Ir.Jmp 5 };
      { Ir.instrs = []; term = Ir.Ret None };
    |];
  let transfer b st =
    List.fold_left
      (fun st i -> match Ir.instr_def i with Some d -> st lor (1 lsl d) | None -> st)
      st f.Ir.blocks.(b).Ir.instrs
  in
  let solve edge = fst (Mir.Cfg.forward ~edge f ~entry:0 ~meet:( land ) ~equal:Int.equal ~transfer) in
  let show ins =
    String.concat " "
      (Array.to_list (Array.map (function Some s -> string_of_int s | None -> "-") ins))
  in
  check Alcotest.string "every edge taken" "0 1 1 1 - 5" (show (solve (fun _ _ s -> Some s)));
  (* With the loop's exit never taken, block 3 is never entered. *)
  check Alcotest.string "exit never taken" "0 1 1 - - -"
    (show (solve (fun p b s -> if p = 1 && b = 3 then None else Some s)))

(* ------------------------------------------------------------------ *)
(* NIL-check elimination                                               *)
(* ------------------------------------------------------------------ *)

let o1 = { Driver.Compile.default_options with optimize = true }

let proc (img : Vm.Image.t) name =
  List.find (fun (p : Vm.Image.proc_info) -> p.Vm.Image.pi_name = name)
    (Array.to_list img.Vm.Image.procs)

(* The instructions per iteration of procedure [name]'s one loop in the
   O1 image of [src]: from a backward branch's target to the branch. The
   procedure keeps no jump. *)
let loop_length src name =
  let img = Driver.Compile.compile ~options:o1 src in
  let p = proc img name in
  let loop = ref None in
  for pc = p.Vm.Image.pi_entry to p.Vm.Image.pi_code_end - 1 do
    match img.Vm.Image.code.(pc) with
    | Machine.Insn.Jmp _ -> Alcotest.failf "%s keeps a jmp at %d" name pc
    | Machine.Insn.Cbr (_, _, _, t) when t >= p.Vm.Image.pi_entry && t <= pc ->
        loop := Some (pc - t + 1)
    | _ -> ()
  done;
  match !loop with Some n -> n | None -> Alcotest.failf "%s has no loop" name

(* takl's Shorterp at O1. The loop re-tests [x] after reloading it, and
   [y.tail] re-tests the [y] the loop test just passed: both checks go,
   with the reloads that fed them. With [x] and [y] in registers the
   rotated loop is a test, two loads and the loop test. *)
let test_nonnil_shorterp () =
  let n = loop_length Programs.Takl_src.src "Shorterp" in
  check Alcotest.bool (Printf.sprintf "%d instructions per iteration" n) true (n <= 4)

(* Each procedure dereferences [p.x] (or [g.x]) once. A check goes only
   when no path to it can make the value NIL: not after a call that may
   clear a global, an address-taken local or what a VAR parameter refers
   to, and not when one incoming edge redefines the value. *)
let nonnil_src =
  "MODULE N;\n\
   TYPE R = RECORD x: INTEGER END; T = REF R;\n\
   VAR g: T;\n\
   PROCEDURE Clear(); BEGIN g := NIL END Clear;\n\
   PROCEDURE Find(k: INTEGER): T; BEGIN IF k > 0 THEN RETURN NEW(T) END; RETURN NIL END Find;\n\
   PROCEDURE Reset(VAR q: T); BEGIN q := NIL END Reset;\n\
   PROCEDURE Fresh(): INTEGER; VAR p: T; BEGIN p := NEW(T); RETURN p.x END Fresh;\n\
   PROCEDURE Tested(p: T): INTEGER;\n\
   BEGIN IF p # NIL THEN Clear(); RETURN p.x END; RETURN 0 END Tested;\n\
   PROCEDURE Global(): INTEGER;\n\
   BEGIN IF g # NIL THEN Clear(); RETURN g.x END; RETURN 0 END Global;\n\
   PROCEDURE Taken(): INTEGER; VAR p: T; BEGIN p := NEW(T); Reset(p); RETURN p.x END Taken;\n\
   PROCEDURE ByRef(VAR p: T): INTEGER;\n\
   BEGIN IF p # NIL THEN Clear(); RETURN p.x END; RETURN 0 END ByRef;\n\
   PROCEDURE Merge(k: INTEGER): INTEGER;\n\
   VAR p: T; BEGIN p := NEW(T); IF k > 1 THEN p := Find(k - 2) END; RETURN p.x END Merge;\n\
   BEGIN\n\
   \  g := NEW(T); PutInt(Fresh() + Tested(g) + Merge(3)); PutLn();\n\
   \  g := NEW(T); PutInt(Merge(2))\n\
   END N.\n"

let test_nonnil_keeps_live_checks () =
  let img = Driver.Compile.compile ~options:o1 nonnil_src in
  let checks name =
    let p = proc img name in
    let n = ref 0 in
    for pc = p.Vm.Image.pi_entry to p.Vm.Image.pi_code_end - 1 do
      match img.Vm.Image.code.(pc) with
      | Machine.Insn.Call (Machine.Insn.Crt Ir.Rt_nil_error) -> incr n
      | _ -> ()
    done;
    !n > 0
  in
  List.iter
    (fun (name, kept) -> check Alcotest.bool (name ^ " keeps its check") kept (checks name))
    [
      ("Fresh", false);
      ("Tested", false);
      ("Global", true);
      ("Taken", true);
      ("ByRef", true);
      ("Merge", true);
    ];
  (* Merge(2) reaches its kept check with NIL, under audit too. *)
  List.iter
    (fun passes ->
      match
        Audit.run_source ~passes o1 ~collector:Driver.Compile.Precise ~threaded:true nonnil_src
      with
      | _ -> Alcotest.fail "Merge(2) must fail its NIL check"
      | exception Vm.Interp.Guest_error msg ->
          check Alcotest.string "the kept check fires" "NIL dereference" msg)
    [ Opt.Pipeline.all_on; Audit.passes ]

(* Audit mode keeps every check the pass proves dead, with a trap on its
   NIL edge. The corpus and the benchmark programs run to the O0 output
   under the precise, generational and incremental collectors on both
   engines, at heaps small enough to collect: no such trap fires. *)
let test_nonnil_audit () =
  let traps = ref 0 in
  List.iter
    (fun (name, heap_words, src) ->
      let reference =
        (Driver.Compile.run_source ~options:{ Driver.Compile.default_options with heap_words }
           ~collector:Driver.Compile.Precise ~threaded:true src)
          .Driver.Compile.output
      in
      let img = Audit.compile { o1 with heap_words } src in
      let code = img.Vm.Image.code in
      Array.iter
        (function
          | Machine.Insn.Cbr (_, _, _, t) when code.(t) = Machine.Insn.Trap Opt.Nonnil.audit_message ->
              incr traps
          | _ -> ())
        code;
      List.iter
        (fun (collector, threaded) ->
          let out = (Driver.Compile.run ~collector ~threaded img).Driver.Compile.output in
          check Alcotest.string
            (Printf.sprintf "%s under %s" name (Driver.Compile.Config.collector_name collector))
            reference out)
        [
          (Driver.Compile.Precise, true);
          (Driver.Compile.Generational, false);
          (Driver.Compile.Incremental, true);
          (Driver.Compile.Precise, false);
        ])
    (List.map (fun (name, src) -> (name, 16000, src)) Corpus.programs
    @ [
        ("takl", 4000, Programs.Takl_src.make ~n1:14 ~n2:10 ~n3:4 ~repeats:5 ~ballast:100);
        ( "destroy",
          16000,
          Programs.Destroy_src.make ~branch:4 ~depth:5 ~replace_depth:2 ~iterations:200 );
      ]);
  check Alcotest.bool (Printf.sprintf "%d audited checks" !traps) true (!traps > 20)

(* ------------------------------------------------------------------ *)
(* Promotion of locals to temps                                        *)
(* ------------------------------------------------------------------ *)

(* takl's Length at O1: with [n] and [l] in registers the loop is the
   increment, the load of [l.tail] and the loop test. *)
let test_promote_length () =
  let n = loop_length Programs.Takl_src.src "Length" in
  check Alcotest.bool (Printf.sprintf "%d instructions per iteration" n) true (n <= 3)

(* Whether the local of procedure [proc] whose name starts with [name]
   still has a frame slot after the O1 pipeline: promotion leaves a
   promoted local with no words. *)
let keeps_slot (prog : Ir.program) proc name =
  let f = List.find (fun (f : Ir.func) -> f.Ir.fname = proc) (Array.to_list prog.Ir.funcs) in
  match
    List.find_opt
      (fun (li : Ir.local_info) -> String.starts_with ~prefix:name li.Ir.l_name)
      (Array.to_list f.Ir.locals)
  with
  | Some li -> li.Ir.l_size > 0
  | None -> Alcotest.failf "%s has no local %s" proc name

let promote_src =
  "MODULE P;\n\
   TYPE V = REF ARRAY OF INTEGER; R = RECORD a, b: INTEGER END; RR = REF R;\n\
   VAR v: V; r: RR;\n\
   PROCEDURE Bump(VAR x: INTEGER); BEGIN x := x + 1 END Bump;\n\
   PROCEDURE ByRef(): INTEGER; VAR k, m: INTEGER;\n\
   BEGIN k := 1; m := 2; Bump(k); RETURN k + m END ByRef;\n\
   PROCEDURE Heap(q: RR): INTEGER; BEGIN WITH w = q.a DO w := w + 2 END; RETURN q.a END Heap;\n\
   PROCEDURE Stack(): INTEGER; VAR k: INTEGER;\n\
   BEGIN k := 4; WITH w = k DO w := w + 3 END; RETURN k END Stack;\n\
   PROCEDURE Sum(a: V): INTEGER; VAR i, s: INTEGER;\n\
   BEGIN s := 0; FOR i := 0 TO 49 DO s := s + a[i] END; RETURN s END Sum;\n\
   BEGIN\n\
   \  v := NEW(V, 50); r := NEW(RR);\n\
   \  PutInt(ByRef()); PutInt(Heap(r)); PutInt(Stack()); PutInt(Sum(v)); PutLn()\n\
   END P.\n"

(* A local whose address is passed as a VAR argument and a WITH alias of
   a heap place (a derived slot) or of a local keep their frame slots; the
   other locals of the same procedures are promoted, and the program
   prints what it prints unoptimized. *)
let test_promote_keeps_slots () =
  check Alcotest.string "output" (run_with_opts no_opts promote_src)
    (run_with_opts Opt.Pipeline.all_on promote_src);
  let prog = mir_with Opt.Pipeline.all_on promote_src in
  List.iter
    (fun (proc, name, kept) ->
      check Alcotest.bool (Printf.sprintf "%s.%s keeps its slot" proc name) kept
        (keeps_slot prog proc name))
    [
      ("ByRef", "k", true);
      ("ByRef", "m", false);
      ("Heap", "w", true);
      ("Stack", "k", true);
      ("Stack", "w", true);
      ("Sum", "s", false);
    ]

(* Pathvar's path variable keeps its slot: the variants of the ambiguous
   slot name it by its frame address. *)
let test_promote_keeps_path_variable () =
  let options = { Driver.Compile.default_options with optimize = true; checks = false } in
  let prog = Driver.Compile.to_mir ~options Programs.Ambig_src.src in
  let paths =
    Array.fold_left
      (fun acc (f : Ir.func) ->
        Array.fold_left
          (fun acc (li : Ir.local_info) ->
            match li.Ir.l_slot with
            | Ir.Sambig a -> f.Ir.locals.(a.Ir.path_local) :: acc
            | _ -> acc)
          acc f.Ir.locals)
      [] prog.Ir.funcs
  in
  check Alcotest.int "one path variable" 1 (List.length paths);
  List.iter (fun (li : Ir.local_info) -> check Alcotest.int "its slot" 1 li.Ir.l_size) paths

(* A pointer local read before anything is stored to it reads NIL, as its
   zero-filled slot did: the first iteration prints NIL, the next ones
   the cell the one before allocated. *)
let test_promote_reads_nil () =
  let src =
    "MODULE U;\n\
     TYPE L = REF RECORD head: INTEGER END;\n\
     PROCEDURE Walk(n: INTEGER); VAR p, q: L; i: INTEGER;\n\
     BEGIN\n\
     \  FOR i := 1 TO n DO\n\
     \    IF p = NIL THEN PutText(\"NIL \") ELSE PutInt(p.head); PutText(\" \") END;\n\
     \    q := NEW(L); q.head := i; p := q\n\
     \  END\n\
     END Walk;\n\
     BEGIN Walk(3); PutLn() END U.\n"
  in
  let prog = mir_with Opt.Pipeline.all_on src in
  check Alcotest.bool "p is promoted" false (keeps_slot prog "Walk" "p");
  check Alcotest.string "O1 output" "NIL 1 2 \n"
    (run_source ~options:o1 src).Driver.Compile.output

(* When the entry block is a loop header, the zero goes in a block of its
   own ahead of it: the loop's back edge must not reset the local. *)
let test_promote_splits_entry () =
  let prog, f = effects_prog () in
  f.Ir.locals <-
    [|
      { Ir.l_name = "n"; l_size = 1; l_slot = Ir.Sscalar; l_user = true; l_addr_taken = false; l_stores = 1 };
    |];
  f.Ir.temp_kinds <- [| Ir.Kscalar; Ir.Kscalar |];
  f.Ir.ntemps <- 2;
  f.Ir.blocks <-
    [|
      {
        Ir.instrs = [ Ir.Ld_local (0, 0, 0); Ir.Bin (Ir.Add, 1, Ir.Otemp 0, Ir.Oimm 1); Ir.St_local (0, 0, Ir.Otemp 1) ];
        term = Ir.Cjmp (Ir.Rlt, Ir.Otemp 1, Ir.Oimm 10, 0, 1);
      };
      { Ir.instrs = []; term = Ir.Ret None };
    |];
  check Alcotest.bool "promoted" true (Opt.Promote.run prog f);
  let n = Array.length f.Ir.blocks in
  check Alcotest.int "one block more" 3 n;
  (match f.Ir.blocks.(0) with
  | { Ir.instrs = [ Ir.Mov (t, Ir.Oimm 0) ]; term = Ir.Jmp body } ->
      check Alcotest.bool "a fresh temp" true (t >= 2);
      check Alcotest.bool "the loop moved" true (body = n - 1)
  | _ -> Alcotest.fail "the entry block is not the zero and a jump");
  Array.iteri
    (fun b (blk : Ir.block) ->
      if List.mem 0 (Ir.term_succs blk.Ir.term) then Alcotest.failf "block %d jumps to the entry" b)
    f.Ir.blocks

(* Pointer locals of [Build] live in callee-saved registers across the
   calls to [Cons], which allocate. A collection at every allocation,
   with the post-collection verifier armed, moves the cells under them:
   both engines print what the unoptimized program prints, in the same
   number of instructions. *)
let test_promote_survives_storm () =
  let src =
    "MODULE S;\n\
     TYPE L = REF Cell; Cell = RECORD head: INTEGER; tail: L END;\n\
     PROCEDURE Cons(h: INTEGER; t: L): L;\n\
     VAR c: L; BEGIN c := NEW(L); c.head := h; c.tail := t; RETURN c END Cons;\n\
     PROCEDURE Build(n: INTEGER): INTEGER;\n\
     VAR keep, acc, p: L; i, s: INTEGER;\n\
     BEGIN\n\
     \  keep := Cons(100, NIL); acc := NIL;\n\
     \  FOR i := 1 TO n DO acc := Cons(i, acc); keep := Cons(keep.head + 1, keep) END;\n\
     \  s := 0; p := acc;\n\
     \  WHILE p # NIL DO s := s + p.head; p := p.tail END;\n\
     \  RETURN s * 1000 + keep.head\n\
     END Build;\n\
     BEGIN PutInt(Build(40)); PutLn() END S.\n"
  in
  let options = { o1 with heap_words = 400 } in
  let img = Driver.Compile.compile ~options src in
  let build = proc img "Build" in
  check Alcotest.bool "Build saves callee-saved registers" true
    (Array.length build.Vm.Image.pi_saves > 0);
  check Alcotest.int "Build's frame holds only the saved registers"
    (Array.length build.Vm.Image.pi_saves) build.Vm.Image.pi_frame_size;
  let reference =
    (run_source ~options:{ options with optimize = false } src).Driver.Compile.output
  in
  check Alcotest.string "O0 output" "820140\n" reference;
  Gc.Verify.set_post true;
  Fun.protect ~finally:(fun () -> Gc.Verify.set_post false) @@ fun () ->
  let run threaded =
    let st = Vm.Interp.create img in
    Gc.Cheney.install st;
    Fault.Faultinject.arm_runtime st (Fault.Faultinject.Alloc_storm { every = 1 });
    let fuel = 10_000_000 in
    if threaded then Vm.Threaded.run ~fuel st else Vm.Interp.run ~fuel st;
    check Alcotest.bool "collected at every allocation" true
      (st.Vm.Interp.gc.Vm.Interp.collections >= st.Vm.Interp.alloc_count);
    (Vm.Interp.output st, st.Vm.Interp.icount)
  in
  let out_switch, icount_switch = run false and out_threaded, icount_threaded = run true in
  check Alcotest.string "switch engine" reference out_switch;
  check Alcotest.string "threaded engine" reference out_threaded;
  check Alcotest.int "same instructions" icount_switch icount_threaded

(* A store into the object an allocation just returned needs no barrier,
   so Barrier_elim elides it when the entry reaches the two blocks; when
   nothing reaches them, the pass assumes nothing fresh there and keeps
   the barrier. *)
let test_barrier_elim_unreachable () =
  let stores reach_alloc =
    let prog, f = effects_prog () in
    f.Ir.blocks <-
      [|
        { Ir.instrs = []; term = (if reach_alloc then Ir.Jmp 1 else Ir.Ret None) };
        { Ir.instrs = [ Ir.Call (Some 0, Ir.Crt (Ir.Rt_alloc 0), []) ]; term = Ir.Jmp 2 };
        { Ir.instrs = [ Ir.Store (Ir.Otemp 0, 1, Ir.Otemp 1) ]; term = Ir.Ret None };
      |];
    Opt.Barrier_elim.run prog;
    match f.Ir.blocks.(2).Ir.instrs with
    | [ Ir.Store_nb _ ] -> "elided"
    | [ Ir.Store _ ] -> "kept"
    | _ -> "rewritten"
  in
  check Alcotest.string "reachable" "elided" (stores true);
  check Alcotest.string "unreachable" "kept" (stores false)

(* A VAR parameter is a derived address that may hold a global's: a
   store through it ends the freshness of a global the procedure has just
   stored a new object to, so the store through the reloaded global keeps
   its barrier. Eliding it leaves an old object pointing at a young one
   outside the remembered set, which the verifier reports. *)
let test_barrier_elim_var_param () =
  let src =
    "MODULE B;\n\
     TYPE N = RECORD v: INTEGER; f: T END; T = REF N;\n\
     VAR g, old, junk: T; i: INTEGER;\n\
     PROCEDURE P(VAR x: T);\n\
     VAR t: T;\n\
     BEGIN t := NEW(T); g := t; x := old; g.f := t END P;\n\
     BEGIN\n\
     \  old := NEW(T);\n\
     \  FOR i := 1 TO 2000 DO junk := NEW(T) END;\n\
     \  P(g); old.f.v := 7;\n\
     \  FOR i := 1 TO 2000 DO junk := NEW(T) END;\n\
     \  PutInt(old.f.v); PutLn()\n\
     END B.\n"
  in
  Gc.Verify.set_post true;
  Fun.protect ~finally:(fun () -> Gc.Verify.set_post false) @@ fun () ->
  List.iter
    (fun optimize ->
      let options = { Driver.Compile.default_options with optimize; heap_words = 4000 } in
      let r =
        Driver.Compile.run_source ~options ~collector:Driver.Compile.Generational ~threaded:true
          src
      in
      check Alcotest.string
        (Printf.sprintf "output at O%d" (Bool.to_int optimize))
        "7\n" r.Driver.Compile.output)
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
          Alcotest.test_case "dce rules the corpus never decides" `Quick test_dce_rules;
          Alcotest.test_case "virtual origin fires" `Quick test_virtual_origin_fires;
          Alcotest.test_case "licm hoists" `Quick test_licm_hoists;
          Alcotest.test_case "pathvar fires on ambig" `Quick test_pathvar_fires;
          Alcotest.test_case "oracles agree on the corpus" `Quick test_oracles_corpus;
          Alcotest.test_case "loop analysis is reused" `Quick test_analysis_reused;
          Alcotest.test_case "a store through an alias invalidates loads" `Quick
            test_alias_store_invalidates;
          Alcotest.test_case "loop passes respect the loop's writes" `Quick
            test_loop_writes_respected;
        ] );
      ( "memory effects",
        [
          Alcotest.test_case "may_write truth table" `Quick test_may_write_table;
          Alcotest.test_case "forward solver" `Quick test_forward_solver;
          QCheck_alcotest.to_alcotest prop_div_mod_folds;
        ] );
      ( "layout",
        [
          Alcotest.test_case "layout keeps every gc-point's roots" `Quick test_layout_corpus;
          Alcotest.test_case "rotation negates a false-edge test" `Quick
            test_layout_rotates_negated;
          Alcotest.test_case "executed jumps at most 3% on takl and destroy" `Slow
            test_layout_jump_ceiling;
        ] );
      ( "nonnil",
        [
          Alcotest.test_case "Shorterp's loop is 4 instructions" `Quick test_nonnil_shorterp;
          Alcotest.test_case "checks a call or a merge can fail stay" `Quick
            test_nonnil_keeps_live_checks;
          Alcotest.test_case "audited checks never fire" `Slow test_nonnil_audit;
        ] );
      ( "promote",
        [
          Alcotest.test_case "Length's loop is 3 instructions" `Quick test_promote_length;
          Alcotest.test_case "addressed, aliased and derived locals keep their slots" `Quick
            test_promote_keeps_slots;
          Alcotest.test_case "a path variable keeps its slot" `Quick
            test_promote_keeps_path_variable;
          Alcotest.test_case "a pointer read before any store is NIL" `Quick
            test_promote_reads_nil;
          Alcotest.test_case "a loop at the entry gets its zero ahead of it" `Quick
            test_promote_splits_entry;
          Alcotest.test_case "registers survive a collection at every allocation" `Quick
            test_promote_survives_storm;
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
          Alcotest.test_case "an unreachable block elides nothing" `Quick
            test_barrier_elim_unreachable;
          Alcotest.test_case "a VAR parameter may write a global" `Quick
            test_barrier_elim_var_param;
        ] );
    ]
