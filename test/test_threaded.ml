(* Differential testing of the threaded-code execution engine against the
   reference switch interpreter: same image, same collector, every
   observable — output, instruction count, collection count, the final
   heap/stack/register state — must agree exactly, with the heap verifier
   armed after every collection. The engine matrix covers {flat, gen} ×
   {unopt, opt} over the benchmark programs, plus qcheck-randomized
   benchmark parameterizations and heap sizes. *)

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

(* Run one machine over [img] under the chosen engine and collector and
   capture everything the guest can observe (and some it cannot). *)
let observe ~threaded ~gen (img : Vm.Image.t) : observed =
  let st = Vm.Interp.create img in
  if gen then Gc.Nursery.install st else Gc.Cheney.install st;
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

let agree ~what ~gen (img : Vm.Image.t) =
  (* Verifier armed: any collection that corrupts the heap fails the run
     itself, not just the comparison. *)
  let post0 = Gc.Verify.post_enabled () in
  Gc.Verify.set_post true;
  Fun.protect
    ~finally:(fun () -> Gc.Verify.set_post post0)
    (fun () ->
      let s = observe ~threaded:false ~gen img in
      let t = observe ~threaded:true ~gen img in
      check Alcotest.string (what ^ ": output") s.output t.output;
      check Alcotest.int (what ^ ": icount") s.icount t.icount;
      check Alcotest.int (what ^ ": collections") s.collections t.collections;
      check Alcotest.int (what ^ ": allocations") s.allocs t.allocs;
      check Alcotest.int (what ^ ": alloc words") s.alloc_words t.alloc_words;
      check Alcotest.bool (what ^ ": final registers") true (s.regs = t.regs);
      check Alcotest.bool (what ^ ": final heap image") true (Vm.Mem.equal s.mem t.mem);
      s.collections)

let compile ~optimize ~heap src =
  C.compile ~options:{ C.default_options with optimize; heap_words = heap } src

(* ------------------------------------------------------------------ *)
(* The benchmark matrix: {flat, gen} x {unopt, opt} x programs          *)
(* ------------------------------------------------------------------ *)

let test_benchmark_matrix () =
  let progs =
    [
      ( "destroy",
        Programs.Destroy_src.make ~branch:3 ~depth:4 ~replace_depth:2 ~iterations:120,
        4000 );
      ("takl", Programs.Takl_src.make ~n1:10 ~n2:6 ~n3:4 ~repeats:3 ~ballast:50, 900);
      ("typereg", Programs.Typereg_src.src, 8000);
      ("FieldList", Programs.Fieldlist_src.src, 4000);
    ]
  in
  let total_collections = ref 0 in
  List.iter
    (fun (name, src, heap) ->
      List.iter
        (fun optimize ->
          let img = compile ~optimize ~heap src in
          List.iter
            (fun gen ->
              let what =
                Printf.sprintf "%s%s %s" name
                  (if optimize then "-opt" else "")
                  (if gen then "gen" else "flat")
              in
              total_collections := !total_collections + agree ~what ~gen img)
            [ false; true ])
        [ false; true ])
    progs;
  (* The matrix is only meaningful if collections actually struck. *)
  check Alcotest.bool
    (Printf.sprintf "matrix exercised the collectors (%d collections)"
       !total_collections)
    true
    (!total_collections > 20)

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
  let post0 = Gc.Verify.post_enabled () in
  Gc.Verify.set_post true;
  Fun.protect
    ~finally:(fun () -> Gc.Verify.set_post post0)
    (fun () ->
      List.iter
        (fun gen ->
          let mode = if gen then "gen" else "flat" in
          let base = observe ~threaded:false ~gen img in
          check Alcotest.bool (mode ^ ": baseline collected") true
            (base.collections > 0);
          List.iter
            (fun threaded ->
              let what =
                Printf.sprintf "%s %s" mode (if threaded then "threaded" else "switch")
              in
              let r = observe ~threaded ~gen img in
              check Alcotest.string (what ^ ": output") base.output r.output;
              check Alcotest.int (what ^ ": icount") base.icount r.icount;
              check Alcotest.int (what ^ ": collections") base.collections r.collections;
              check Alcotest.int (what ^ ": allocations") base.allocs r.allocs;
              check Alcotest.int (what ^ ": alloc words") base.alloc_words r.alloc_words;
              check Alcotest.bool (what ^ ": final registers") true (base.regs = r.regs);
              check Alcotest.bool (what ^ ": final heap image") true
                (Vm.Mem.equal base.mem r.mem))
            [ false; true ])
        [ false; true ])

(* ------------------------------------------------------------------ *)
(* Engine selection plumbing                                           *)
(* ------------------------------------------------------------------ *)

let test_engine_switch () =
  let src = "MODULE T; BEGIN PutInt(42) END T.\n" in
  (* The default tracks MM_THREADED (CI runs the whole suite both ways). *)
  let dflt = if Vm.Threaded.enabled () then "threaded" else "switch" in
  let r0 = C.run_source src in
  check Alcotest.string "default engine honors MM_THREADED" dflt r0.C.engine;
  let was = Vm.Threaded.enabled () in
  Fun.protect
    ~finally:(fun () -> Vm.Threaded.set_enabled was)
    (fun () ->
      Vm.Threaded.set_enabled true;
      let rt = C.run_source src in
      Vm.Threaded.set_enabled false;
      let rs = C.run_source src in
      check Alcotest.string "set_enabled true selects threaded" "threaded"
        rt.C.engine;
      check Alcotest.string "set_enabled false selects switch" "switch" rs.C.engine;
      check Alcotest.string "same output" rt.C.output rs.C.output;
      check Alcotest.int "same icount" rt.C.instructions rs.C.instructions)

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
      let* gen_mode = bool in
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
              gen_mode )
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
              gen_mode ))
  in
  QCheck.Test.make ~name:"threaded and switch agree on randomized benchmarks"
    ~count:25
    (QCheck.make ~print:(fun (what, _, heap, o, g) ->
         Printf.sprintf "%s heap=%d opt=%b gen=%b" what heap o g)
       gen)
    (fun (what, src, heap, optimize, gen_mode) ->
      let img = compile ~optimize ~heap src in
      (* Heap exhaustion on an aggressive parameterization is a legitimate
         outcome — but both engines must then agree on the failure, which
         [agree] cannot express; surface it by comparing exceptions. *)
      match agree ~what ~gen:gen_mode img with
      | _ -> true
      | exception Vm.Vm_error.Error (Vm.Vm_error.Heap_exhausted _) ->
          let fails threaded =
            match observe ~threaded ~gen:gen_mode img with
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
          Alcotest.test_case "fusion legality" `Quick test_fusion_legality;
        ] );
    ]
