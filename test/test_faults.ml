(* The integrity layer: total decoding under adversarial bytes, the heap
   verifier across the benchmark matrix, and the fault-injection sweep.
   The claims under test are ISSUE 3's acceptance criteria: no mutation of
   the encoded table streams may crash or hang the runtime, effective
   mutations are rejected with typed errors (or flagged by the verifier),
   and the verifier reports zero violations on every healthy program under
   every scheme × packing × optimization configuration. *)

module L = Gcmaps.Loc
module RM = Gcmaps.Rawmaps
module E = Gcmaps.Encode
module D = Gcmaps.Decode
module F = Fault.Faultinject

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Decode totality: random procedures × random single-byte mutations    *)
(* ------------------------------------------------------------------ *)

(* Generators in the style of test_decode_cache. *)
let gen_loc =
  QCheck.Gen.(
    oneof
      [
        map (fun r -> L.Lreg r) (int_range 0 11);
        map2
          (fun b o -> L.Lmem ((match b with 0 -> L.FP | 1 -> L.SP | _ -> L.AP), o))
          (int_range 0 2) (int_range (-100) 100);
      ])

let gen_deriv =
  QCheck.Gen.(
    map3
      (fun t p m -> { RM.target = t; plus = p; minus = m })
      gen_loc
      (list_size (int_range 1 3) gen_loc)
      (list_size (int_range 0 2) gen_loc))

let gen_gcpoint =
  QCheck.Gen.(
    map
      (fun (stack, regs, derivs) ->
        {
          RM.gp_index = 0;
          gp_offset = 0;
          stack_ptrs = List.sort_uniq L.compare stack;
          reg_ptrs = List.sort_uniq compare regs;
          derivs;
          variants = [];
        })
      (triple
         (list_size (int_range 0 6) gen_loc)
         (list_size (int_range 0 4) (int_range 0 11))
         (list_size (int_range 0 2) gen_deriv)))

let gen_proc =
  QCheck.Gen.(
    map3
      (fun gps gaps (frame, nargs) ->
        let off = ref 0 in
        let gps =
          List.map2
            (fun g gap ->
              off := !off + gap;
              { g with RM.gp_offset = !off })
            gps
            (List.filteri (fun i _ -> i < List.length gps) gaps)
        in
        let gps = List.mapi (fun i g -> { g with RM.gp_index = i }) gps in
        {
          RM.pm_fid = 0;
          pm_name = "p0";
          pm_frame_size = frame;
          pm_nargs = nargs;
          pm_saves = [ (6, -1); (7, -2) ];
          pm_code_bytes = !off + 20;
          pm_gcpoints = gps;
        })
      (list_size (int_range 1 8) gen_gcpoint)
      (list_repeat 8 (int_range 0 9))
      (pair (int_range 0 40) (int_range 0 6)))

(* A random single-byte mutation (flip, rewrite, truncate-by-one, extend
   with a continuation byte) of the encoded stream. *)
let gen_mutation =
  QCheck.Gen.(
    triple (int_range 0 3) (int_range 0 1_000_000) (int_range 0 255))

let apply_mutation (kind, posr, v) stream =
  let b = Bytes.copy stream in
  let len = Bytes.length b in
  if len = 0 then b
  else
    let pos = posr mod len in
    match kind with
    | 0 ->
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl (v mod 8))));
        b
    | 1 ->
        Bytes.set b pos (Char.chr v);
        b
    | 2 -> Bytes.sub b 0 (len - 1)
    | _ ->
        let out = Bytes.create (len + 1) in
        Bytes.blit b 0 out 0 pos;
        Bytes.set out pos '\x80';
        Bytes.blit b pos out (pos + 1) (len - pos);
        out

(* Encode → mutate one byte → decode must either report Table_corrupt or
   produce tables observationally equal to the original (the cross-check
   itself is the oracle: [validate_proc ~against] accepts only streams
   that decode back to the raw maps). Any other exception is the crash
   class the total decoder removes. *)
let prop_mutation_total =
  QCheck.Test.make ~name:"mutated stream: typed rejection or equal decode" ~count:300
    (QCheck.make QCheck.Gen.(triple gen_proc (oneofl Gcmaps.Table_stats.configs) gen_mutation))
    (fun (pm, (_, scheme, opts), mutation) ->
      let ep = E.encode_proc scheme opts pm in
      let ep' = { ep with E.ep_stream = apply_mutation mutation ep.E.ep_stream } in
      match D.validate_proc ~against:pm scheme opts ep' with
      | () -> true (* decodes identically: the mutation had no effect *)
      | exception D.Table_corrupt _ -> true
      | exception _ -> false)

(* The pristine stream must always pass its own cross-check (sanity for
   the property above: the oracle accepts the unmutated encoding). *)
let prop_pristine_validates =
  QCheck.Test.make ~name:"pristine stream validates" ~count:100
    (QCheck.make QCheck.Gen.(pair gen_proc (oneofl Gcmaps.Table_stats.configs)))
    (fun (pm, (_, scheme, opts)) ->
      let ep = E.encode_proc scheme opts pm in
      match D.validate_proc ~against:pm scheme opts ep with
      | () -> true
      | exception D.Table_corrupt _ -> false)

(* ------------------------------------------------------------------ *)
(* Directed corruptions: typed errors with context                      *)
(* ------------------------------------------------------------------ *)

let sample_tables () =
  let pm =
    QCheck.Gen.generate1 ~rand:(Random.State.make [| 99 |]) gen_proc
  in
  (pm, E.encode_program E.Delta_main { E.packing = true; previous = true } [| pm |] [| 0 |])

let test_truncation_rejected () =
  let _, tables = sample_tables () in
  let ep = tables.E.procs.(0) in
  let cut = Bytes.length ep.E.ep_stream / 2 in
  let tables' =
    { tables with E.procs = [| { ep with E.ep_stream = Bytes.sub ep.E.ep_stream 0 cut } |] }
  in
  match D.validate_tables tables' with
  | () -> Alcotest.fail "truncated stream must not validate"
  | exception D.Table_corrupt { fid = 0; _ } -> ()
  | exception D.Table_corrupt _ -> Alcotest.fail "wrong fid in report"

let test_overlong_varint_rejected () =
  (* An unterminated continuation run must surface as Table_corrupt (via
     the bounded varint scan), not a hang or an Invalid_argument escape. *)
  let _, tables = sample_tables () in
  let ep = tables.E.procs.(0) in
  let tables' =
    {
      tables with
      E.procs = [| { ep with E.ep_stream = Bytes.make (Bytes.length ep.E.ep_stream) '\x80' } |];
    }
  in
  match D.validate_tables tables' with
  | () -> Alcotest.fail "all-continuation stream must not validate"
  | exception D.Table_corrupt _ -> ()

let test_find_miss_has_context () =
  let _, tables = sample_tables () in
  (match D.find tables ~fid:0 ~code_offset:987654 with
  | exception D.Table_corrupt { fid = 0; offset = 987654; _ } -> ()
  | exception D.Table_corrupt _ -> Alcotest.fail "miss must carry fid and offset"
  | _ -> Alcotest.fail "bogus offset must not resolve");
  match D.find tables ~fid:5 ~code_offset:0 with
  | exception D.Table_corrupt { fid = 5; _ } -> ()
  | exception D.Table_corrupt _ -> Alcotest.fail "bad fid must be reported as such"
  | _ -> Alcotest.fail "bogus fid must not resolve"

(* ------------------------------------------------------------------ *)
(* The heap verifier                                                    *)
(* ------------------------------------------------------------------ *)

let with_verifier ~pre f =
  Gc.Verify.set_post true;
  Gc.Verify.set_pre pre;
  Fun.protect
    ~finally:(fun () ->
      Gc.Verify.set_post false;
      Gc.Verify.set_pre false)
    f

(* Every benchmark × both schemes × packed/plain × opt/unopt × collector
   (full compaction / generational / generational without the static
   barrier elimination / incremental), each on a named engine, with heaps
   small enough to collect, under pre- and post-verification. Any table bug, stackwalk bug, copy bug or
   unrecorded old→young reference the verifier can see raises
   Verify_failed; outputs must still match the gc-free reference. *)
let test_verifier_matrix () =
  let benchmarks =
    [
      ("takl", Programs.Takl_src.src, 400);
      ("destroy", Programs.Destroy_src.src, 8000);
      ("typereg", Programs.Typereg_src.src, 3000);
      ("fieldlist", Programs.Fieldlist_src.src, 300);
      ("indirect", Programs.Indirect_src.src, 1000);
      ("ambig", Programs.Ambig_src.src, 400);
    ]
  in
  let schemes =
    [
      ("delta+pp", E.Delta_main, { E.packing = true; previous = true });
      ("delta+plain", E.Delta_main, { E.packing = false; previous = false });
      ("full+pp", E.Full_info, { E.packing = true; previous = true });
      ("full+plain", E.Full_info, { E.packing = false; previous = false });
    ]
  in
  with_verifier ~pre:true (fun () ->
      List.iter
        (fun (name, src, heap) ->
          let reference =
            Driver.Compile.run_source ~collector:Driver.Compile.Precise ~threaded:true
              ~options:{ Driver.Compile.default_options with heap_words = 65536 }
              src
          in
          List.iter
            (fun (cfg, scheme, table_opts) ->
              List.iter
                (fun (optimize, checks) ->
                  List.iter
                    (fun (ccfg, collector, barrier_elim, threaded) ->
                      let options =
                        {
                          Driver.Compile.default_options with
                          optimize;
                          checks;
                          heap_words = heap;
                          scheme;
                          table_opts;
                          barrier_elim;
                        }
                      in
                      let r = Driver.Compile.run_source ~options ~collector ~threaded src in
                      check Alcotest.string
                        (Printf.sprintf "%s/%s/%s/opt=%b/checks=%b output" name cfg ccfg
                           optimize checks)
                        reference.Driver.Compile.output r.Driver.Compile.output;
                      if r.Driver.Compile.collections > 0 then
                        match Gc.Verify.last_report () with
                        | None ->
                            Alcotest.fail (name ^ ": collected but verifier never ran")
                        | Some rep ->
                            check Alcotest.int
                              (Printf.sprintf "%s/%s/%s/opt=%b/checks=%b violations" name
                                 cfg ccfg optimize checks)
                              0
                              (List.length rep.Gc.Verify.violations))
                    [
                      ("flat", Driver.Compile.Precise, true, true);
                      ("gen", Driver.Compile.Generational, true, false);
                      ("gen-noelim", Driver.Compile.Generational, false, true);
                      ("inc", Driver.Compile.Incremental, true, false);
                    ])
                (* checks=false on ambig enables the path-variable transform:
                   the one configuration whose derivation chains route through
                   variant tables (the ordering bug the verifier caught). *)
                [ (false, true); (true, true); (false, false); (true, false) ])
            schemes)
        benchmarks)

(* The verifier actually detects damage: scribble over a live object's
   header and the next pass must report it. *)
let test_verifier_detects_corruption () =
  let src =
    "MODULE M; TYPE P = REF INTEGER; VAR p: P; BEGIN p := NEW(P); p^ := 7; \
     PutInt(p^) END M."
  in
  let img = Driver.Compile.compile src in
  let st = Vm.Interp.create img in
  Gc.Cheney.install st;
  Vm.Interp.run st;
  check Alcotest.bool "allocated something" true (st.Vm.Interp.alloc > st.Vm.Interp.from_base);
  (* Valid heap passes. *)
  let rep = Gc.Verify.check st ~phase:"post" ~frames:[] () in
  check Alcotest.int "healthy heap: no violations" 0 (List.length rep.Gc.Verify.violations);
  (* Now smash the first object's header with a non-descriptor. *)
  st.Vm.Interp.mem.{st.Vm.Interp.from_base} <- -42;
  match Gc.Verify.check st ~phase:"post" ~frames:[] () with
  | _ -> Alcotest.fail "corrupted header must fail verification"
  | exception Vm.Vm_error.Error (Vm.Vm_error.Verify_failed { violations; _ }) ->
      check Alcotest.bool "reported" true (violations <> [])

(* ------------------------------------------------------------------ *)
(* Fault sweeps (reduced iteration counts; tools/faultgen runs the       *)
(* full-size sweep in CI)                                               *)
(* ------------------------------------------------------------------ *)

let test_sweep_cross_checked () =
  let sweeps = F.sweep_all ~cross_check:true ~seed:0xfa57 ~iterations_per_config:12 () in
  let total = List.fold_left (fun a (s : F.sweep) -> a + s.iterations) 0 sweeps in
  check Alcotest.bool "swept something" true (total >= 100);
  List.iter
    (fun (s : F.sweep) ->
      check Alcotest.int
        (Printf.sprintf "%s/%s crashes" s.program s.config)
        0 (F.count s "crashed");
      check Alcotest.int (Printf.sprintf "%s/%s hangs" s.program s.config) 0 (F.count s "hung");
      check Alcotest.int
        (Printf.sprintf "%s/%s silent divergence" s.program s.config)
        0 (F.count s "diverged"))
    sweeps

let test_sweep_uncrosschecked () =
  (* Without the load-time redundancy check, corrupt tables reach the
     collector: the decoder and verifier must still prevent every crash
     and hang (silent divergence is possible by design here — that is
     precisely why image load keeps the cross-check on). *)
  let sweeps = F.sweep_all ~cross_check:false ~seed:0xfa58 ~iterations_per_config:8 () in
  List.iter
    (fun (s : F.sweep) ->
      check Alcotest.int
        (Printf.sprintf "%s/%s crashes" s.program s.config)
        0 (F.count s "crashed");
      check Alcotest.int (Printf.sprintf "%s/%s hangs" s.program s.config) 0 (F.count s "hung"))
    sweeps

(* The mutated images run under the collector the reference run uses:
   one target under the incremental collector, whose mark-sweep core and
   tri-color verifier check decode the mutated tables. *)
let test_sweep_incremental () =
  let target = List.hd F.default_targets in
  List.iter
    (fun cross_check ->
      let s =
        F.sweep_target ~cross_check ~collector:Driver.Compile.Incremental ~seed:0xfa59
          ~iterations:12 target (List.hd F.all_configs)
      in
      let what = Printf.sprintf "%s/%s cross_check=%b" s.F.program s.F.config cross_check in
      check Alcotest.int (what ^ " crashes") 0 (F.count s "crashed");
      check Alcotest.int (what ^ " hangs") 0 (F.count s "hung");
      check Alcotest.int (what ^ " failures") 0 (List.length s.F.failures))
    [ true; false ]

(* The sweep's targets at O1 in audit mode, where each NIL check the
   optimizer proves dead stays behind a trap: on their collecting heaps,
   under the three collectors the sweep uses and with the verifier
   armed, none fires and every run prints the O0 output. *)
let test_sweep_targets_audit () =
  F.with_verifier (fun () ->
      List.iter
        (fun (t : F.target) ->
          let run optimize collector =
            Audit.run_source
              { Driver.Compile.default_options with optimize; heap_words = t.F.t_heap }
              ~collector ~threaded:false t.F.t_source
          in
          let reference = run false Driver.Compile.Precise in
          List.iter
            (fun collector ->
              check Alcotest.string
                (Printf.sprintf "%s under %s" t.F.t_name
                   (Driver.Compile.Config.collector_name collector))
                reference (run true collector))
            [ Driver.Compile.Precise; Driver.Compile.Generational; Driver.Compile.Incremental ])
        F.default_targets)

(* ------------------------------------------------------------------ *)

let () =
  let prop = QCheck_alcotest.to_alcotest in
  Alcotest.run "faults"
    [
      ( "decode totality",
        [
          prop prop_pristine_validates;
          prop prop_mutation_total;
          Alcotest.test_case "truncation rejected" `Quick test_truncation_rejected;
          Alcotest.test_case "overlong varint rejected" `Quick test_overlong_varint_rejected;
          Alcotest.test_case "find miss has context" `Quick test_find_miss_has_context;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "benchmark matrix, zero violations" `Slow test_verifier_matrix;
          Alcotest.test_case "detects corruption" `Quick test_verifier_detects_corruption;
        ] );
      ( "fault sweep",
        [
          Alcotest.test_case "cross-checked: nothing survives" `Slow test_sweep_cross_checked;
          Alcotest.test_case "uncross-checked: no crash, no hang" `Slow test_sweep_uncrosschecked;
          Alcotest.test_case "incremental collector: no crash, no hang" `Slow test_sweep_incremental;
          Alcotest.test_case "audited NIL checks never fire on the targets" `Quick
            test_sweep_targets_audit;
        ] );
    ]
