(* Incremental-collector equivalence suite: the tri-color sliced
   collector must be observationally identical to the stop-the-world
   collectors — same program output, same instruction count (slices
   execute no guest instructions) — across both execution engines and
   both optimization levels, with the heap verifier (including its
   tri-color check) armed at every slice boundary. Because the default
   work-quota pacing is a pure function of the allocation stream, the two
   engines must additionally agree on the byte-identical final heap image
   and collection count. A qcheck property then drives random programs
   under random slice schedules (work quotas, triggers, storms, starved
   mark stacks; triggers and storms through the wrapped gc-point poll)
   against the STW reference, and the fault-injection
   interleaving sweep must come back clean. *)

module D = Driver.Compile
module I = Vm.Interp
module F = Fault.Faultinject

let fuel = 50_000_000

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

type cell = {
  out : string;
  icount : int;
  collections : int;
  mem : Vm.Mem.t;
  stats : Gc.Incremental.stats option;
}

type schedule = {
  slice_work : int option;
  gray_cap : int option;
  pause_budget_us : int option;
  trigger : int option; (* start a cycle after this many words instead *)
  storm : bool; (* a slice at every gc-point *)
}

type mode = Stw | Inc of schedule

let default_schedule =
  { slice_work = None; gray_cap = None; pause_budget_us = None; trigger = None; storm = false }

let inc_default = Inc default_schedule

(* A trigger or a storm is a schedule the pacing would not pick, so it
   goes through the wrapped gc-point poll: a storm slices at every
   gc-point; a trigger starts each cycle after [trigger] words and
   leaves the pacing of a cycle in flight to the installed poll. *)
let wrap_poll (st : I.t) ~trigger ~storm =
  match (st.I.inc_slice, st.I.inc) with
  | Some poll, Some inc ->
      if storm then st.I.inc_slice <- Some Gc.Incremental.slice
      else
        Option.iter
          (fun trigger ->
            st.I.inc_slice <-
              Some
                (fun st ->
                  match inc.I.inc_phase with
                  | I.Inc_idle ->
                      if st.I.alloc_words - inc.I.inc_cycle_start_words >= trigger then
                        Gc.Incremental.slice st
                  | I.Inc_marking | I.Inc_sweeping -> poll st))
          trigger
  | _ -> ()

let run_cell ~mode ~threaded ~optimize ~heap src : cell =
  let options = { D.default_options with optimize; heap_words = heap } in
  let img = D.compile ~options src in
  let st = I.create img in
  (match mode with
  | Stw -> Gc.Cheney.install st
  | Inc { slice_work; gray_cap; pause_budget_us; trigger; storm } ->
      ignore (Gc.Incremental.install ?slice_work ?gray_cap ?pause_budget_us st);
      wrap_poll st ~trigger ~storm);
  if threaded then Vm.Threaded.run ~fuel st else I.run ~fuel st;
  {
    out = I.output st;
    icount = st.I.icount;
    collections = st.I.gc.I.collections;
    mem = st.I.mem;
    stats = Gc.Incremental.stats st;
  }

let with_post_verifier f =
  Gc.Verify.set_post true;
  Fun.protect ~finally:(fun () -> Gc.Verify.set_post false) f

(* ------------------------------------------------------------------ *)
(* Differential matrix                                                 *)
(* ------------------------------------------------------------------ *)

(* Two inputs: list churn, and destroy with a long-lived ballast list
   (the shape of the pause-latency workload, scaled down). *)
let test_matrix () =
  with_post_verifier @@ fun () ->
  let destroy_ballast =
    Programs.Destroy_src.make_ballast ~ballast:1000 ~branch:3 ~depth:5 ~replace_depth:2
      ~iterations:300
  in
  List.iter
    (fun (name, src, optimize) ->
      let tag b = Printf.sprintf "%s %s/O%d" name (if b then "threaded" else "switch")
          (if optimize then 1 else 0)
      in
      let reference = run_cell ~mode:Stw ~threaded:false ~optimize ~heap:16384 src in
      let cells =
        List.map
          (fun threaded ->
            (threaded, run_cell ~mode:inc_default ~threaded ~optimize ~heap:16384 src))
          [ false; true ]
      in
      List.iter
        (fun (threaded, c) ->
          if c.out <> reference.out then
            Alcotest.failf "%s: output diverged from STW" (tag threaded);
          if c.icount <> reference.icount then
            Alcotest.failf "%s: icount %d <> STW %d" (tag threaded) c.icount
              reference.icount;
          let s = Option.get c.stats in
          if s.Gc.Incremental.cycles < 1 then
            Alcotest.failf "%s: collector never cycled (heap too big?)" (tag threaded))
        cells;
      (* Deterministic work pacing: both engines took slices at identical
         gc-points with identical quotas, so the final stores must be
         byte-identical and the collection counts equal. *)
      match cells with
      | [ (_, a); (_, b) ] ->
          if not (Vm.Mem.equal a.mem b.mem) then
            Alcotest.failf "%s O%d: final heap images differ across engines" name
              (if optimize then 1 else 0);
          if a.collections <> b.collections then
            Alcotest.failf "%s O%d: collection counts differ across engines (%d vs %d)"
              name
              (if optimize then 1 else 0)
              a.collections b.collections
      | _ -> assert false)
    (List.concat_map
       (fun (name, src) -> [ (name, src, false); (name, src, true) ])
       [ ("churn", churn_src ~iters:20000 ~period:64); ("destroy-ballast", destroy_ballast) ])

(* ------------------------------------------------------------------ *)
(* Budget smoke                                                        *)
(* ------------------------------------------------------------------ *)

let test_budget () =
  with_post_verifier @@ fun () ->
  let src = churn_src ~iters:30000 ~period:256 in
  let reference = run_cell ~mode:Stw ~threaded:false ~optimize:false ~heap:16384 src in
  let budgeted = Inc { default_schedule with pause_budget_us = Some 200 } in
  let c = run_cell ~mode:budgeted ~threaded:false ~optimize:false ~heap:16384 src in
  Alcotest.(check string) "output" reference.out c.out;
  Alcotest.(check int) "icount" reference.icount c.icount;
  let s = Option.get c.stats in
  Alcotest.(check bool) "took slices" true (s.Gc.Incremental.slices > 0);
  Alcotest.(check int) "budget recorded" 200 s.Gc.Incremental.budget_us;
  (* Lenient wall-clock sanity bound, not the real budget claim (mmbench's
     inc-budget workload reports the pauses): a 200 us budget must not
     produce a 50 ms slice on any machine CI runs on. *)
  if s.Gc.Incremental.max_slice_ns > 50_000_000 then
    Alcotest.failf "200us-budget slice took %d ns" s.Gc.Incremental.max_slice_ns

(* ------------------------------------------------------------------ *)
(* Mark-stack spills reach the metric                                  *)
(* ------------------------------------------------------------------ *)

(* A two-entry mark stack spills on the fault sweep's destroy-small
   target, barrier pushes included; the metric that `mmrun --gc-stats`
   prints must read the collector's own count. *)
let test_spills_counted () =
  let module T = Telemetry in
  let img =
    D.compile
      ~options:{ D.default_options with heap_words = 1200 }
      (Programs.Destroy_src.make ~branch:3 ~depth:4 ~replace_depth:2 ~iterations:80)
  in
  T.Metrics.reset ();
  T.Control.enable ();
  Fun.protect ~finally:T.Control.disable @@ fun () ->
  let st = I.create img in
  ignore (Gc.Incremental.install ~gray_cap:2 st);
  I.run ~fuel st;
  let s = Option.get (Gc.Incremental.stats st) in
  Alcotest.(check bool) "spilled" true (s.Gc.Incremental.spills > 0);
  Alcotest.(check int) "gc.mark_spills" s.Gc.Incremental.spills
    (T.Metrics.counter_value "gc.mark_spills")

(* ------------------------------------------------------------------ *)
(* qcheck: random programs x random slice schedules == STW             *)
(* ------------------------------------------------------------------ *)

(* The program family keeps every heap object the same size (3-word list
   nodes), so the non-moving free list always fits a dead block and the
   property never trips over fragmentation out-of-memory — mixed-size
   stress lives in the fault-target sweep below. The schedule knobs span
   the extremes: near-STW quotas, one-object quotas, storms, and mark
   stacks far too small for the live frontier. *)
let gen_case =
  QCheck.Gen.(
    let* iters = int_range 500 8000 in
    let* period = int_range 2 100 in
    let* heap = int_range 900 8192 in
    let* slice_work = int_range 8 4096 in
    let* trigger = int_range 32 2048 in
    let* storm = bool in
    let* gray_cap = oneof [ return None; map (fun c -> Some c) (int_range 2 64) ] in
    return (iters, period, heap, slice_work, trigger, storm, gray_cap))

let print_case (iters, period, heap, sw, tr, ss, gc) =
  Printf.sprintf "iters=%d period=%d heap=%d slice_work=%d trigger=%d storm=%b cap=%s" iters
    period heap sw tr ss
    (match gc with None -> "-" | Some c -> string_of_int c)

let prop_interleaving =
  QCheck.Test.make ~name:"random schedules match STW across engines" ~count:25
    (QCheck.make ~print:print_case gen_case)
    (fun (iters, period, heap, slice_work, trigger, storm, gray_cap) ->
      with_post_verifier @@ fun () ->
      let src = churn_src ~iters ~period in
      let mode =
        Inc
          {
            default_schedule with
            slice_work = Some slice_work;
            trigger = Some trigger;
            gray_cap;
            storm;
          }
      in
      let reference = run_cell ~mode:Stw ~threaded:false ~optimize:false ~heap src in
      let a = run_cell ~mode ~threaded:false ~optimize:false ~heap src in
      let b = run_cell ~mode ~threaded:true ~optimize:false ~heap src in
      a.out = reference.out && a.icount = reference.icount
      && b.out = reference.out && b.icount = reference.icount
      && Vm.Mem.equal a.mem b.mem
      && a.collections = b.collections)

(* ------------------------------------------------------------------ *)
(* Interleaving fault sweep                                            *)
(* ------------------------------------------------------------------ *)

let test_fault_sweep () =
  let sweeps = F.incremental_sweep_all () in
  List.iter
    (fun (s : F.sweep) ->
      if s.F.failures <> [] then
        Alcotest.failf "%s/%s: %s" s.F.program s.F.config
          (String.concat ", "
             (List.map
                (fun (c : F.case) ->
                  Printf.sprintf "%s->%s" c.F.mutation (F.outcome_name c.F.outcome))
                s.F.failures)))
    sweeps

(* ------------------------------------------------------------------ *)
(* Gc time accounting                                                  *)
(* ------------------------------------------------------------------ *)

(* Every pause of the mark-sweep core counts into [gc.total_gc_ns]: the
   incremental collector's slices and the conservative baseline's
   stop-the-world collections. The baseline walks no frames. *)
let test_gc_time () =
  let src = churn_src ~iters:5000 ~period:32 in
  let options = { D.default_options with heap_words = 2048 } in
  List.iter
    (fun (name, collector, threaded) ->
      let r = D.run_source ~options ~collector ~threaded ~fuel src in
      Alcotest.(check bool) (name ^ ": collected") true (r.D.collections > 0);
      Alcotest.(check bool) (name ^ ": gc time counted") true (r.D.gc.I.total_gc_ns > 0L);
      if collector = D.Conservative then
        Alcotest.(check int) (name ^ ": no frames walked") 0 r.D.gc.I.frames_traced)
    [ ("incremental", D.Incremental, true); ("conservative", D.Conservative, false) ]

let () =
  Alcotest.run "incremental"
    [
      ( "equivalence",
        [
          Alcotest.test_case "differential matrix" `Quick test_matrix;
          Alcotest.test_case "pause budget smoke" `Quick test_budget;
          Alcotest.test_case "mark-stack spills counted" `Quick test_spills_counted;
          Alcotest.test_case "gc time accounted" `Quick test_gc_time;
          QCheck_alcotest.to_alcotest prop_interleaving;
        ] );
      ( "faults",
        [
          Alcotest.test_case "interleaving sweep clean" `Quick test_fault_sweep;
        ] );
    ]
