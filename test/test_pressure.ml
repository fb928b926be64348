(* Memory-pressure regression suite: on fixed semispaces, a churning
   program's output, icount and final heap image must not depend on the
   execution engine, and its output and icount not on the collector;
   allocation storms must change nothing observable; and each runtime
   failure class must keep its distinct typed exit code. *)

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
  mem : Vm.Mem.t;
}

let run_cell ?(storm = 0) ~gen ~threaded ~heap src : cell =
  let options = { D.default_options with heap_words = heap } in
  let img = D.compile ~options src in
  let st = I.create img in
  if gen then Gc.Nursery.install st else Gc.Cheney.install st;
  if storm > 0 then F.arm_runtime st (F.Alloc_storm { every = storm });
  if threaded then Vm.Threaded.run ~fuel st else I.run ~fuel st;
  { out = I.output st; icount = st.I.icount; collections = st.I.gc.I.collections; mem = st.I.mem }

let with_post_verifier f =
  Gc.Verify.set_post true;
  Fun.protect ~finally:(fun () -> Gc.Verify.set_post false) f

(* ------------------------------------------------------------------ *)
(* The mode × engine matrix: {flat, gen} × {switch, threaded} on a
   fixed [heap]-word semispace all agree with the big-heap reference on
   output and icount, and every mode's final store is byte-identical
   across engines.                                                      *)
(* ------------------------------------------------------------------ *)

let check_matrix ~heap src =
  with_post_verifier (fun () ->
      let reference = run_cell ~gen:false ~threaded:false ~heap:big_heap src in
      let cells =
        List.concat_map
          (fun gen ->
            List.map
              (fun threaded -> ((gen, threaded), run_cell ~gen ~threaded ~heap src))
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
            Alcotest.failf "%s: output diverged from the big heap's" tag;
          if c.icount <> reference.icount then
            Alcotest.failf "%s: icount %d <> reference %d" tag c.icount
              reference.icount)
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
      (reference, List.map snd cells))

let test_churn_matrix () =
  (* ~24k allocated words: even the big reference heap collects, and the
     tiny cells collect many times over. *)
  let reference, cells = check_matrix ~heap:tiny_heap (churn_src ~iters:6000 ~period:11) in
  Alcotest.(check bool) "reference collected" true (reference.collections > 0);
  List.iter
    (fun c ->
      Alcotest.(check bool) "tiny heap collected" true (c.collections > reference.collections))
    cells;
  (* One more input, with open arrays among the survivors: destroy's
     tree, whose live set exhausts generational heaps below 8,192 words. *)
  let reference, _ =
    check_matrix ~heap:(big_heap / 2)
      (Programs.Destroy_src.make ~branch:3 ~depth:6 ~replace_depth:3 ~iterations:200)
  in
  Alcotest.(check bool) "destroy reference collected" true (reference.collections > 0)

let prop_churn_matrix =
  QCheck.Test.make ~name:"modes and engines agree on random churn" ~count:8
    (QCheck.make
       ~print:(fun (i, p) -> Printf.sprintf "iters=%d period=%d" i p)
       QCheck.Gen.(pair (int_range 80 500) (int_range 3 17)))
    (fun (iters, period) ->
      ignore (check_matrix ~heap:tiny_heap (churn_src ~iters ~period));
      true)

(* ------------------------------------------------------------------ *)
(* Allocation storms: forcing a collection every Nth allocation, through
   the wrapped gc-point poll, changes collection counts but never
   observable behavior, and both engines storm identically.             *)
(* ------------------------------------------------------------------ *)

let test_alloc_storm () =
  let src = churn_src ~iters:700 ~period:9 in
  with_post_verifier (fun () ->
      let calm = run_cell ~gen:false ~threaded:false ~heap:big_heap src in
      List.iter
        (fun (gen, collections) ->
          let mode = if gen then "gen" else "flat" in
          let switch = run_cell ~storm:7 ~gen ~threaded:false ~heap:tiny_heap src in
          let threaded = run_cell ~storm:7 ~gen ~threaded:true ~heap:tiny_heap src in
          List.iter
            (fun (engine, c) ->
              let tag = Printf.sprintf "%s/%s storm" mode engine in
              Alcotest.(check string) (tag ^ " output") calm.out c.out;
              Alcotest.(check int) (tag ^ " icount") calm.icount c.icount;
              Alcotest.(check int) (tag ^ " collections") collections c.collections)
            [ ("switch", switch); ("threaded", threaded) ];
          if not (Vm.Mem.equal switch.mem threaded.mem) then
            Alcotest.failf "%s storm: final store differs across engines" mode)
        (* The counts recorded when the storm sat in the allocation path:
           the poll passes the allocation's size, so the storm collects at
           the same allocations with the same request (gen: 93 minors and
           7 full collections). *)
        [ (false, 100); (true, 100) ])

(* ------------------------------------------------------------------ *)
(* Typed OOM: a fixed tiny heap exhausts with the typed
   [Heap_exhausted], exit code 13; a big fixed heap runs the same
   program to completion.                                               *)
(* ------------------------------------------------------------------ *)

(* Keeps every node live, so no collection can make room. *)
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

let test_typed_oom () =
  let src = hoard_src ~iters:4000 in
  List.iter
    (fun gen ->
      let name = if gen then "gen tiny heap" else "flat tiny heap" in
      match run_cell ~gen ~threaded:false ~heap:tiny_heap src with
      | _ -> Alcotest.failf "%s: expected Heap_exhausted" name
      | exception Vm.Vm_error.Error (Vm.Vm_error.Heap_exhausted _ as e) ->
          Alcotest.(check int) (name ^ " exit code") 13 (Vm.Vm_error.exit_code e))
    [ false; true ];
  let big = run_cell ~gen:false ~threaded:false ~heap:big_heap src in
  Alcotest.(check string) "big heap output" "8002000\n" big.out

(* An empty nursery is a typed configuration error, raised before
   anything runs. *)
let test_empty_nursery_refused () =
  match
    D.run_source ~collector:D.Generational ~threaded:true ~nursery_words:0
      (churn_src ~iters:10 ~period:4)
  with
  | _ -> Alcotest.fail "an empty nursery was accepted"
  | exception Support.Runtime_config.Config_error (Bad_value { setting; _ }) ->
      Alcotest.(check string) "setting" "~nursery_words" setting

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
          Alcotest.test_case "matrix on churn" `Quick test_churn_matrix;
          QCheck_alcotest.to_alcotest prop_churn_matrix;
          Alcotest.test_case "alloc storm" `Quick test_alloc_storm;
        ] );
      ( "oom",
        [
          Alcotest.test_case "typed exhaustion and recovery" `Quick test_typed_oom;
          Alcotest.test_case "empty nursery refused" `Quick test_empty_nursery_refused;
          Alcotest.test_case "exit codes" `Quick test_exit_codes;
        ] );
      ( "faults",
        [
          Alcotest.test_case "runtime fault sweep" `Quick test_runtime_fault_sweep;
        ] );
    ]
