(* Memory-pressure regression suite: adaptive heap growth must be
   observationally invisible (output, icount, final heap image) across
   collectors and execution engines; allocation storms must change
   nothing observable; and each runtime failure class must keep its
   distinct typed exit code. *)

module D = Driver.Compile
module I = Vm.Interp
module F = Fault.Faultinject

let tiny_heap = 600
let big_heap = 16384
let fuel = 50_000_000

(* ------------------------------------------------------------------ *)
(* A parameterized list-churn program: pushes [iters] nodes, dropping
   the accumulated list every [period] pushes (so most of the heap is
   garbage at any collection) and summing the last kept batch.          *)
(* ------------------------------------------------------------------ *)

let churn_src ~iters ~period =
  Printf.sprintf
    "MODULE Churn;\n\
     TYPE Node = RECORD v: INTEGER; n: List END; List = REF Node;\n\
     VAR head, keep: List; i, k, s: INTEGER;\n\n\
     PROCEDURE Push(v: INTEGER);\n\
     VAR c: List;\n\
     BEGIN c := NEW(List); c.v := v; c.n := head; head := c END Push;\n\n\
     BEGIN\n\
     \  k := 0;\n\
     \  FOR i := 1 TO %d DO\n\
     \    Push(i);\n\
     \    k := k + 1;\n\
     \    IF k > %d THEN\n\
     \      keep := head; head := NIL; k := 0\n\
     \    ELSE\n\
     \      s := s + 0\n\
     \    END\n\
     \  END;\n\
     \  s := 0;\n\
     \  WHILE keep # NIL DO s := s + keep.v; keep := keep.n END;\n\
     \  PutInt(s); PutLn()\n\
     END Churn.\n"
    iters (period - 1)

(* ------------------------------------------------------------------ *)
(* One cell of the matrix, driven through Vm.Interp directly so the
   final store is observable.                                           *)
(* ------------------------------------------------------------------ *)

type cell = {
  out : string;
  icount : int;
  collections : int;
  resizes : int;
  mem : Vm.Mem.t;
}

let run_cell ?(storm = 0) ~gen ~threaded ~heap ~grow src : cell =
  let options = { D.default_options with heap_words = heap } in
  let img = D.compile ~options src in
  let st = I.create img in
  if grow then begin
    st.I.heap_resize <- true;
    st.I.heap_max_words <- big_heap
  end;
  if storm > 0 then st.I.alloc_pressure_every <- storm;
  if gen then Gc.Nursery.install st else Gc.Cheney.install st;
  let e0 = Vm.Threaded.enabled () in
  Vm.Threaded.set_enabled threaded;
  Fun.protect
    ~finally:(fun () -> Vm.Threaded.set_enabled e0)
    (fun () -> if threaded then Vm.Threaded.run ~fuel st else I.run ~fuel st);
  {
    out = I.output st;
    icount = st.I.icount;
    collections = st.I.gc.I.collections;
    resizes = st.I.gc.I.resizes;
    mem = st.I.mem;
  }

let with_post_verifier f =
  let post0 = Gc.Verify.post_enabled () in
  Gc.Verify.set_post true;
  Fun.protect ~finally:(fun () -> Gc.Verify.set_post post0) f

(* ------------------------------------------------------------------ *)
(* The growth-equivalence property: {tiny heap + growth} × {flat, gen}
   × {switch, threaded} all agree with the big fixed-heap reference on
   output and icount; flat cells additionally agree on the collection
   count (eager pre-collection growth reproduces the big heap's
   collection points exactly), and every mode's final store is
   byte-identical across engines.                                       *)
(* ------------------------------------------------------------------ *)

let check_matrix src =
  with_post_verifier (fun () ->
      let reference = run_cell ~gen:false ~threaded:false ~heap:big_heap ~grow:false src in
      let cells =
        List.concat_map
          (fun gen ->
            List.map
              (fun threaded ->
                ((gen, threaded), run_cell ~gen ~threaded ~heap:tiny_heap ~grow:true src))
              [ false; true ])
          [ false; true ]
      in
      List.iter
        (fun ((gen, threaded), c) ->
          let tag =
            Printf.sprintf "%s/%s"
              (if gen then "gen" else "flat")
              (if threaded then "threaded" else "switch")
          in
          if c.out <> reference.out then
            Alcotest.failf "%s: output diverged under growth" tag;
          if c.icount <> reference.icount then
            Alcotest.failf "%s: icount %d <> reference %d" tag c.icount
              reference.icount;
          if (not gen) && c.collections <> reference.collections then
            Alcotest.failf "%s: collections %d <> reference %d (eager growth)"
              tag c.collections reference.collections)
        cells;
      (* Engines must not leave a trace in the store: within a collector
         mode every cell's final image is one byte pattern. *)
      List.iter
        (fun gen ->
          match List.filter (fun ((g, _), _) -> g = gen) cells with
          | ((_, base) :: rest : ((bool * bool) * cell) list) ->
              List.iter
                (fun ((_, t), c) ->
                  if not (Vm.Mem.equal base.mem c.mem) then
                    Alcotest.failf "%s/%s: final store differs within mode"
                      (if gen then "gen" else "flat")
                      (if t then "threaded" else "switch"))
                rest
          | [] -> ())
        [ false; true ];
      reference)

let test_growth_matrix () =
  (* ~24k allocated words: even the big reference heap collects, and the
     tiny cells must grow through several resizes to keep up. *)
  let src = churn_src ~iters:6000 ~period:11 in
  let reference = check_matrix src in
  (* The tiny cells really grew (the property is not vacuous). *)
  let tiny =
    run_cell ~gen:false ~threaded:false ~heap:tiny_heap ~grow:true src
  in
  Alcotest.(check bool) "growth exercised" true (tiny.resizes > 0);
  Alcotest.(check bool) "reference collected" true (reference.collections > 0);
  (* One more input, with open arrays among the survivors: destroy's
     tree, whose live set outgrows the tiny heap several times over. *)
  let reference =
    check_matrix
      (Programs.Destroy_src.make ~branch:3 ~depth:6 ~replace_depth:3 ~iterations:200)
  in
  Alcotest.(check bool) "destroy reference collected" true (reference.collections > 0)

let prop_growth_matrix =
  QCheck.Test.make ~name:"growth invisible across random churn parameters"
    ~count:8
    (QCheck.make
       ~print:(fun (i, p) -> Printf.sprintf "iters=%d period=%d" i p)
       QCheck.Gen.(pair (int_range 80 500) (int_range 3 17)))
    (fun (iters, period) ->
      ignore (check_matrix (churn_src ~iters ~period));
      true)

(* ------------------------------------------------------------------ *)
(* Allocation storms: forcing the collect/grow slow path every Nth
   allocation changes collection counts but never observable behavior.  *)
(* ------------------------------------------------------------------ *)

let test_alloc_storm () =
  let src = churn_src ~iters:700 ~period:9 in
  with_post_verifier (fun () ->
      let calm = run_cell ~gen:false ~threaded:false ~heap:big_heap ~grow:false src in
      List.iter
        (fun gen ->
          let stormy =
            run_cell ~storm:7 ~gen ~threaded:false ~heap:tiny_heap ~grow:true src
          in
          Alcotest.(check string)
            (if gen then "gen storm output" else "flat storm output")
            calm.out stormy.out;
          Alcotest.(check int) "storm icount" calm.icount stormy.icount;
          Alcotest.(check bool) "storm forced collections" true
            (stormy.collections > calm.collections))
        [ false; true ])

(* ------------------------------------------------------------------ *)
(* Typed OOM: a fixed tiny heap exhausts; the same heap with growth
   completes; growth capped below the live set still exhausts — and the
   failure is the typed [Heap_exhausted], exit code 13.                 *)
(* ------------------------------------------------------------------ *)

(* Keeps every node live: growth can only delay — not avoid — the cap. *)
let hoard_src ~iters =
  Printf.sprintf
    "MODULE Hoard;\n\
     TYPE Node = RECORD v: INTEGER; n: List END; List = REF Node;\n\
     VAR head: List; i, s: INTEGER;\n\
     PROCEDURE Push(v: INTEGER);\n\
     VAR c: List;\n\
     BEGIN c := NEW(List); c.v := v; c.n := head; head := c END Push;\n\
     BEGIN\n\
     \  FOR i := 1 TO %d DO Push(i) END;\n\
     \  s := 0;\n\
     \  WHILE head # NIL DO s := s + head.v; head := head.n END;\n\
     \  PutInt(s); PutLn()\n\
     END Hoard.\n"
    iters

let expect_heap_exhausted name f =
  match f () with
  | (_ : cell) -> Alcotest.failf "%s: expected Heap_exhausted" name
  | exception Vm.Vm_error.Error (Vm.Vm_error.Heap_exhausted _ as e) ->
      Alcotest.(check int) (name ^ " exit code") 13 (Vm.Vm_error.exit_code e)

let test_typed_oom () =
  let src = hoard_src ~iters:4000 in
  expect_heap_exhausted "fixed tiny heap" (fun () ->
      run_cell ~gen:false ~threaded:false ~heap:tiny_heap ~grow:false src);
  (* With growth the same program completes, identically to a big heap. *)
  let grown = run_cell ~gen:false ~threaded:false ~heap:tiny_heap ~grow:true src in
  let fixed = run_cell ~gen:false ~threaded:false ~heap:big_heap ~grow:false src in
  Alcotest.(check string) "grown output" fixed.out grown.out;
  Alcotest.(check int) "grown icount" fixed.icount grown.icount;
  Alcotest.(check bool) "grown resizes" true (grown.resizes > 0)

let test_capped_oom () =
  (* A live set that cannot fit below the cap exhausts with the typed
     error even though growth is armed. *)
  let src = hoard_src ~iters:20000 in
  expect_heap_exhausted "capped growth" (fun () ->
      run_cell ~gen:false ~threaded:false ~heap:tiny_heap ~grow:true src)

(* An explicit growth request under a non-moving collector is a typed
   configuration error naming both arguments, raised before anything
   runs; so is an out-of-range size. *)
let test_growth_refused () =
  let src = churn_src ~iters:10 ~period:4 in
  let refused what expected f =
    match f () with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Support.Runtime_config.Config_error (Conflict { first; second; _ }) ->
        Alcotest.(check (pair string string)) what expected (first, second)
    | exception Support.Runtime_config.Config_error (Bad_value { setting; _ }) ->
        Alcotest.(check string) what (fst expected) setting
  in
  refused "incremental + growth" ("~collector:incremental", "~heap_grow:true") (fun () ->
      D.run_source ~collector:D.Incremental ~heap_grow:true src);
  refused "conservative + cap" ("~collector:conservative", "~heap_max_words") (fun () ->
      D.run_source ~collector:D.Conservative ~heap_max_words:big_heap src);
  refused "empty nursery" ("~nursery_words", "") (fun () ->
      D.run_source ~collector:D.Generational ~nursery_words:0 src);
  (* Growth explicitly off is no request. *)
  ignore (D.run_source ~collector:D.Incremental ~heap_grow:false src)

(* ------------------------------------------------------------------ *)
(* Exit-code mapping: one distinct code per failure class.              *)
(* ------------------------------------------------------------------ *)

let test_exit_codes () =
  let open Vm.Vm_error in
  let codes =
    List.map exit_code
      [
        Generic "x";
        Corrupt_table { fid = 0; offset = 0; reason = "r" };
        Bad_root { loc = "l"; value = 0; reason = "r" };
        Heap_exhausted { needed = 1; free = 0 };
        Verify_failed { collection = 0; phase = "post"; violations = [] };
        Out_of_fuel { instructions = 0 };
      ]
  in
  let codes = codes @ [ Support.Runtime_config.exit_code ] in
  Alcotest.(check (list int)) "typed exit codes" [ 10; 11; 12; 13; 14; 15; 16 ] codes;
  (* All distinct, and clear of 0 (success), 3 (guest trap) and the
     cmdliner range. *)
  Alcotest.(check int) "distinct" (List.length codes)
    (List.length (List.sort_uniq compare codes))

(* ------------------------------------------------------------------ *)
(* The runtime fault sweep: an allocation storm on every faultgen
   target, with the post-verifier armed, never crashes, hangs, diverges
   or trips the verifier, and every case is benign.                     *)
(* ------------------------------------------------------------------ *)

let test_runtime_fault_sweep () =
  List.iter
    (fun s ->
      let count name = F.count s name in
      Alcotest.(check int) (s.F.program ^ " crashed") 0 (count "crashed");
      Alcotest.(check int) (s.F.program ^ " hung") 0 (count "hung");
      Alcotest.(check int) (s.F.program ^ " diverged") 0 (count "diverged");
      Alcotest.(check int) (s.F.program ^ " verifier_flagged") 0 (count "verifier_flagged");
      Alcotest.(check int) (s.F.program ^ " benign") s.F.iterations (count "benign"))
    (with_post_verifier (fun () -> F.runtime_sweep_all ()))

let () =
  Alcotest.run "pressure"
    [
      ( "growth",
        [
          Alcotest.test_case "matrix on churn" `Quick test_growth_matrix;
          QCheck_alcotest.to_alcotest prop_growth_matrix;
          Alcotest.test_case "alloc storm" `Quick test_alloc_storm;
        ] );
      ( "oom",
        [
          Alcotest.test_case "typed exhaustion and recovery" `Quick test_typed_oom;
          Alcotest.test_case "exhaustion at the cap" `Quick test_capped_oom;
          Alcotest.test_case "growth refused without a moving collector" `Quick test_growth_refused;
          Alcotest.test_case "exit codes" `Quick test_exit_codes;
        ] );
      ( "faults",
        [
          Alcotest.test_case "runtime fault sweep" `Quick test_runtime_fault_sweep;
        ] );
    ]
