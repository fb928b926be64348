(* Differential testing across collectors and engines: one image run
   under {precise, generational, incremental} x {switch, threaded}, with
   the heap verifier armed before and after every collection. All six
   cells must print the same output after executing the same number of
   instructions (a collection executes no guest instructions), and each
   collector's two engines must agree on every observable — collection
   count, allocations, final registers and the final heap image. The
   matrix covers the benchmark programs at O0 and O1, the toy programs
   ({!Toys}), {!Dead_base}'s program and the examples, and checks that
   each image's tables describe every derivation base; plus
   qcheck-randomized benchmark parameterizations and heap sizes. *)

let check = Alcotest.check

module C = Driver.Compile

type observed = {
  output : string;
  icount : int;
  collections : int;
  allocs : int;
  alloc_words : int;
  regs : int array;
  mem : Vm.Mem.t;
}

let collectors = [ C.Precise; C.Generational; C.Incremental ]

(* Run one machine over [img] under the chosen engine and collector and
   capture everything the guest can observe (and some it cannot). *)
let observe ~threaded ~collector (img : Vm.Image.t) : observed =
  let st = Vm.Interp.create img in
  ignore (C.install ~collector st);
  if threaded then Vm.Threaded.run st else Vm.Interp.run st;
  {
    output = Vm.Interp.output st;
    icount = st.Vm.Interp.icount;
    collections = st.Vm.Interp.gc.Vm.Interp.collections;
    allocs = st.Vm.Interp.alloc_count;
    alloc_words = st.Vm.Interp.alloc_words;
    regs = Array.copy st.Vm.Interp.regs;
    mem = Vm.Mem.copy st.Vm.Interp.mem;
  }

(* Verifier armed before and after every collection: any collection that
   corrupts the heap fails the run itself, not just the comparison. *)
let verified f =
  Gc.Verify.set_pre true;
  Gc.Verify.set_post true;
  Fun.protect
    ~finally:(fun () ->
      Gc.Verify.set_pre false;
      Gc.Verify.set_post false)
    f

let same ~what (a : observed) (b : observed) =
  check Alcotest.string (what ^ ": output") a.output b.output;
  check Alcotest.int (what ^ ": icount") a.icount b.icount;
  check Alcotest.int (what ^ ": collections") a.collections b.collections;
  check Alcotest.int (what ^ ": allocations") a.allocs b.allocs;
  check Alcotest.int (what ^ ": alloc words") a.alloc_words b.alloc_words;
  check Alcotest.bool (what ^ ": final registers") true (a.regs = b.regs);
  check Alcotest.bool (what ^ ": final heap image") true (Vm.Mem.equal a.mem b.mem)

(* [collector]'s two engines agree on everything; the switch run's
   observables are returned. *)
let engines_agree ~what ~collector (img : Vm.Image.t) =
  verified (fun () ->
      let s = observe ~threaded:false ~collector img in
      same ~what (observe ~threaded:true ~collector img) s;
      s)

(* The six cells of one image; with [collects], each collector must
   collect. Returns the collections the three collectors ran. *)
let cells_agree ?expected ~collects ~what (img : Vm.Image.t) =
  let runs =
    List.map
      (fun collector ->
        let what = Printf.sprintf "%s %s" what (C.Config.collector_name collector) in
        (what, engines_agree ~what ~collector img))
      collectors
  in
  let base = snd (List.hd runs) in
  Option.iter (fun e -> check Alcotest.string (what ^ ": expected output") e base.output) expected;
  List.fold_left
    (fun total (what, r) ->
      check Alcotest.string (what ^ ": output across collectors") base.output r.output;
      check Alcotest.int (what ^ ": icount across collectors") base.icount r.icount;
      if collects then check Alcotest.bool (what ^ ": collected") true (r.collections > 0);
      total + r.collections)
    0 runs

let compile ~optimize ~heap src =
  C.compile ~options:{ C.default_options with optimize; heap_words = heap } src

(* ------------------------------------------------------------------ *)
(* The matrix: collectors x engines x {O0, O1} x programs              *)
(* ------------------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Every program with its heap, its expected output where one is known,
   and why it cannot collect, for the toys that cannot; every other
   program collects under each collector at its heap. The examples are
   read from the source tree, so a new example joins the matrix. *)
let matrix_programs () =
  let examples =
    Sys.readdir "../examples" |> Array.to_list |> List.sort compare
    |> List.filter (fun f -> Filename.check_suffix f ".m3l")
    |> List.map (fun f -> (f, read_file (Filename.concat "../examples" f), 4000, None, None))
  in
  [
    ( "destroy",
      Programs.Destroy_src.make ~branch:3 ~depth:4 ~replace_depth:2 ~iterations:120,
      4000,
      None,
      None );
    ("takl", Programs.Takl_src.make ~n1:10 ~n2:6 ~n3:4 ~repeats:3 ~ballast:50, 300, None, None);
    ("typereg", Programs.Typereg_src.src, 8000, None, None);
    ("FieldList", Programs.Fieldlist_src.src, 100, None, None);
    ("DeadBase", Dead_base.src, 250, Some Dead_base.expected, None);
  ]
  @ List.map
      (fun (t : Toys.t) ->
        (t.Toys.name, t.Toys.src, t.Toys.small, Some t.Toys.expected, t.Toys.never_collects))
      Toys.all
  @ examples

let test_benchmark_matrix () =
  let progs = matrix_programs () in
  check Alcotest.bool "examples found" true
    (List.exists (fun (name, _, _, _, _) -> Filename.check_suffix name ".m3l") progs);
  let total_collections = ref 0 in
  List.iter
    (fun (name, src, heap, expected, never_collects) ->
      List.iter
        (fun optimize ->
          let img = compile ~optimize ~heap src in
          let what =
            Toys.small_row ~never:never_collects (Printf.sprintf "%s O%d" name (Bool.to_int optimize))
          in
          Dead_base.check_described what img;
          total_collections :=
            !total_collections + cells_agree ?expected ~collects:(never_collects = None) ~what img)
        [ false; true ])
    progs;
  (* The matrix is only meaningful if collections actually struck. *)
  check Alcotest.bool
    (Printf.sprintf "matrix exercised the collectors (%d collections)" !total_collections)
    true
    (!total_collections > 100)

(* ------------------------------------------------------------------ *)
(* Engines x {flat, gen} against a repeated switch run                 *)
(* ------------------------------------------------------------------ *)

let test_engine_sweep () =
  (* {flat, gen} x {switch, threaded}: a fresh run on either engine must
     reproduce the first switch-engine run's observables exactly, so the
     collector is deterministic from run to run as well as across
     engines. Post verifier armed throughout. *)
  let img =
    compile ~optimize:true ~heap:4000
      (Programs.Destroy_src.make ~branch:3 ~depth:4 ~replace_depth:2 ~iterations:120)
  in
  verified (fun () ->
      List.iter
        (fun collector ->
          let mode = C.Config.collector_name collector in
          let base = observe ~threaded:false ~collector img in
          check Alcotest.bool (mode ^ ": baseline collected") true (base.collections > 0);
          List.iter
            (fun threaded ->
              let what = Printf.sprintf "%s %s" mode (if threaded then "threaded" else "switch") in
              same ~what base (observe ~threaded ~collector img))
            [ false; true ])
        [ C.Precise; C.Generational ])

(* ------------------------------------------------------------------ *)
(* Engine selection plumbing                                           *)
(* ------------------------------------------------------------------ *)

(* [run ~threaded] names the engine; without it, the run takes the
   module switch that mmrun's --no-threaded turns off. *)
let test_engine_switch () =
  let src = "MODULE T; BEGIN PutInt(42) END T.\n" in
  let rt = C.run_source ~collector:C.Precise ~threaded:true src in
  let rs = C.run_source ~collector:C.Precise ~threaded:false src in
  check Alcotest.string "~threaded:true selects threaded" "threaded" rt.C.engine;
  check Alcotest.string "~threaded:false selects switch" "switch" rs.C.engine;
  check Alcotest.string "same output" rt.C.output rs.C.output;
  check Alcotest.int "same icount" rt.C.instructions rs.C.instructions;
  check Alcotest.string "default engine" "threaded" (C.run_source ~collector:C.Precise src).C.engine;
  Fun.protect
    ~finally:(fun () -> Vm.Threaded.set_enabled true)
    (fun () ->
      Vm.Threaded.set_enabled false;
      check Alcotest.string "set_enabled false selects switch" "switch"
        (C.run_source ~collector:C.Precise src).C.engine)

(* ------------------------------------------------------------------ *)
(* Fuel semantics                                                      *)
(* ------------------------------------------------------------------ *)

(* A fuel-killed threaded run may overshoot the budget by at most one
   instruction (a fused pair straddling the boundary); a completed run is
   exact. *)
let test_fuel_tolerance () =
  let src =
    "MODULE T; VAR i, s: INTEGER;\n\
     BEGIN s := 0; FOR i := 1 TO 100000 DO s := s + i END; PutInt(s) END T.\n"
  in
  let img = C.compile src in
  let spent threaded fuel =
    let st = Vm.Interp.create img in
    Gc.Cheney.install st;
    match if threaded then Vm.Threaded.run ~fuel st else Vm.Interp.run ~fuel st with
    | () -> Error st.Vm.Interp.icount (* completed inside the budget *)
    | exception Vm.Vm_error.Error _ -> Ok st.Vm.Interp.icount
  in
  List.iter
    (fun fuel ->
      match (spent false fuel, spent true fuel) with
      | Ok s, Ok t ->
          check Alcotest.bool
            (Printf.sprintf "fuel %d: overshoot at most 1 (switch %d, threaded %d)"
               fuel s t)
            true
            (t >= s && t <= s + 1)
      | Error s, Error t ->
          check Alcotest.int (Printf.sprintf "fuel %d: both completed" fuel) s t
      | _ -> Alcotest.fail (Printf.sprintf "fuel %d: engines disagree on completion" fuel))
    [ 1; 2; 100; 101; 1000; 100_000_000 ]

(* ------------------------------------------------------------------ *)
(* Faults observe exact state                                          *)
(* ------------------------------------------------------------------ *)

(* DESIGN.md §8: a fault leaves the same pc, icount and registers under
   both engines. Each program faults one way, at O0 and O1: a NIL store
   with checks off (the VM's write guard), DIV by zero, a stack overflow
   from unbounded recursion, and a bounds trap. *)
let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_fault_state () =
  let fault ~threaded img =
    let st = Vm.Interp.create img in
    Gc.Cheney.install st;
    let outcome =
      match if threaded then Vm.Threaded.run st else Vm.Interp.run st with
      | () -> "completed"
      | exception Vm.Vm_error.Error e -> "vm error: " ^ Vm.Vm_error.to_string e
      | exception Vm.Interp.Guest_error m -> "trap: " ^ m
    in
    (outcome, st.Vm.Interp.pc, st.Vm.Interp.icount, Array.copy st.Vm.Interp.regs)
  in
  let cases =
    [
      ( "NIL store, checks off",
        false,
        "memory write out of range",
        "MODULE T; TYPE R = REF RECORD a, b: INTEGER END; VAR p: R; i: INTEGER;\n\
         BEGIN p := NEW(R); FOR i := 1 TO 3 DO p^.a := i END; p := NIL; p^.b := 5 END T.\n" );
      ( "DIV by zero",
        true,
        "division by zero",
        "MODULE T; VAR a, b, i: INTEGER;\n\
         BEGIN a := 7; b := 3; FOR i := 1 TO 3 DO b := b - 1; a := a + 7 DIV b END;\n\
         PutInt(a) END T.\n" );
      ( "stack overflow",
        true,
        "stack overflow",
        "MODULE T;\n\
         PROCEDURE F(n: INTEGER): INTEGER; BEGIN RETURN F(n + 1) + 1 END F;\n\
         BEGIN PutInt(F(0)) END T.\n" );
      ( "bounds trap",
        true,
        "index out of range",
        "MODULE T; VAR a: ARRAY [0..3] OF INTEGER; i: INTEGER;\n\
         BEGIN FOR i := 0 TO 9 DO a[i] := i END END T.\n" );
    ]
  in
  List.iter
    (fun (name, checks, expect, src) ->
      List.iter
        (fun optimize ->
          let what = Printf.sprintf "%s, O%d" name (Bool.to_int optimize) in
          let img = C.compile ~options:{ C.default_options with optimize; checks } src in
          let so, spc, sic, sregs = fault ~threaded:false img in
          let tout, tpc, tic, tregs = fault ~threaded:true img in
          check Alcotest.bool (what ^ ": faults as expected (" ^ so ^ ")") true
            (contains ~needle:expect so);
          check Alcotest.string (what ^ ": fault") so tout;
          check Alcotest.int (what ^ ": pc") spc tpc;
          check Alcotest.int (what ^ ": icount") sic tic;
          check Alcotest.(array int) (what ^ ": registers") sregs tregs)
        [ false; true ])
    cases

(* ------------------------------------------------------------------ *)
(* Fusion legality (unit)                                              *)
(* ------------------------------------------------------------------ *)

let test_fusion_legality () =
  let module I = Machine.Insn in
  let module F = Machine.Fusion in
  (* mov ; add ; jmp@1 — the add is a branch target, so the pair (0,1) is
     illegal; with the jump gone it fuses. *)
  let looped =
    [| I.Mov (I.Reg 2, I.Imm 1); I.Arith (I.Add, I.Reg 2, I.Reg 2, I.Imm 1); I.Jmp 1 |]
  in
  let tgt = F.targets looped in
  check Alcotest.bool "jump target marked" true tgt.(1);
  check Alcotest.bool "no fusion into a branch target" true
    (F.fusible looped tgt 0 = None);
  let straight =
    [| I.Mov (I.Reg 2, I.Imm 1); I.Arith (I.Add, I.Reg 2, I.Reg 2, I.Imm 1) |]
  in
  let tgt = F.targets straight in
  check Alcotest.bool "mov+arith fuses" true
    (F.fusible straight tgt 0 = Some F.Mov_arith);
  (* A call is a gc-point: legal only as the last element of a pair. *)
  let callpair = [| I.Push (I.Imm 3); I.Call (I.Crt (Mir.Ir.Rt_alloc 0)) |] in
  let tgt = F.targets callpair in
  check Alcotest.bool "push+call fuses (call last)" true
    (F.fusible callpair tgt 0 = Some F.Push_call);
  let callfirst = [| I.Call (I.Crt (Mir.Ir.Rt_alloc 0)); I.Mov (I.Reg 2, I.Imm 0) |] in
  let tgt = F.targets callfirst in
  check Alcotest.bool "call never fuses as first element" true
    (F.fusible callfirst tgt 0 = None);
  (* The instruction after a procedure call is a return point. *)
  let retpoint =
    [| I.Push (I.Reg 2); I.Call (I.Cproc 0); I.Mov (I.Reg 2, I.Reg 0); I.Ret 1 |]
  in
  let tgt = F.targets retpoint in
  check Alcotest.bool "return point marked" true tgt.(2)

(* ------------------------------------------------------------------ *)
(* qcheck: randomized benchmark parameterizations                      *)
(* ------------------------------------------------------------------ *)

let prop_random_params =
  let gen =
    QCheck.Gen.(
      let* which = int_range 0 1 in
      let* optimize = bool in
      let* collector = oneofl collectors in
      match which with
      | 0 ->
          let* branch = int_range 2 3 in
          let* depth = int_range 2 4 in
          let* replace_depth = int_range 1 depth in
          let* iterations = int_range 5 30 in
          let* heap = int_range 2500 8000 in
          return
            ( Printf.sprintf "destroy b=%d d=%d r=%d i=%d h=%d" branch depth
                replace_depth iterations heap,
              Programs.Destroy_src.make ~branch ~depth ~replace_depth ~iterations,
              heap,
              optimize,
              collector )
      | _ ->
          let* n1 = int_range 8 11 in
          let* n2 = int_range 5 7 in
          let* n3 = int_range 3 5 in
          let* repeats = int_range 1 2 in
          let* ballast = int_range 0 120 in
          let* heap = int_range 800 2500 in
          return
            ( Printf.sprintf "takl %d,%d,%d r=%d b=%d h=%d" n1 n2 n3 repeats ballast
                heap,
              Programs.Takl_src.make ~n1 ~n2 ~n3 ~repeats ~ballast,
              heap,
              optimize,
              collector ))
  in
  QCheck.Test.make ~name:"threaded and switch agree on randomized benchmarks"
    ~count:25
    (QCheck.make ~print:(fun (what, _, heap, o, c) ->
         Printf.sprintf "%s heap=%d opt=%b %s" what heap o (C.Config.collector_name c))
       gen)
    (fun (what, src, heap, optimize, collector) ->
      let img = compile ~optimize ~heap src in
      (* Heap exhaustion on an aggressive parameterization is a legitimate
         outcome — but both engines must then agree on the failure, which
         [engines_agree] cannot express; surface it by comparing exceptions. *)
      match engines_agree ~what ~collector img with
      | _ -> true
      | exception Vm.Vm_error.Error (Vm.Vm_error.Heap_exhausted _) ->
          let fails threaded =
            match observe ~threaded ~collector img with
            | _ -> false
            | exception Vm.Vm_error.Error (Vm.Vm_error.Heap_exhausted _) -> true
          in
          fails false && fails true)

let () =
  Alcotest.run "threaded"
    [
      ( "differential",
        [
          Alcotest.test_case "benchmark matrix" `Quick test_benchmark_matrix;
          Alcotest.test_case "engine sweep x {flat,gen}" `Quick test_engine_sweep;
          QCheck_alcotest.to_alcotest prop_random_params;
        ] );
      ( "engine",
        [
          Alcotest.test_case "runtime switch" `Quick test_engine_switch;
          Alcotest.test_case "fuel tolerance" `Quick test_fuel_tolerance;
          Alcotest.test_case "faults observe exact state" `Quick test_fault_state;
          Alcotest.test_case "fusion legality" `Quick test_fusion_legality;
        ] );
    ]
