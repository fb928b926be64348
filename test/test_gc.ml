(* Collector tests: the heart of the reproduction. Every scenario is run
   with heaps small enough to force many collections; since the collector
   moves every live object on every collection, any error in the tables,
   the stack walk, register reconstruction or the derived-value update
   changes program output or crashes. *)

let check = Alcotest.check

let run ?(collector = Driver.Compile.Precise) ?(threaded = true) ?(optimize = false)
    ?(checks = true) ?(heap = 65536) src =
  let options =
    { Driver.Compile.default_options with optimize; checks; heap_words = heap }
  in
  Driver.Compile.run_source ~options ~collector ~threaded src

(* Run a program under a matrix of configurations, with the heap
   verifier armed before and after every collection; all outputs must
   agree with the big-heap precise run, and the small heaps must actually
   collect. *)
let matrix ?(small = 400) ?(tiny = 250) name src =
  let reference = run ~heap:65536 src in
  check Alcotest.bool (name ^ ": reference runs gc-free") true
    (reference.Driver.Compile.collections = 0);
  Gc.Verify.set_pre true;
  Gc.Verify.set_post true;
  Fun.protect ~finally:(fun () ->
      Gc.Verify.set_pre false;
      Gc.Verify.set_post false)
  @@ fun () ->
  List.iter
    (fun (tag, optimize, checks, heap, collector, threaded, expect_gc) ->
      let r = run ~collector ~threaded ~optimize ~checks ~heap src in
      check Alcotest.string
        (Printf.sprintf "%s/%s output" name tag)
        reference.Driver.Compile.output r.Driver.Compile.output;
      if expect_gc then
        check Alcotest.bool
          (Printf.sprintf "%s/%s collected" name tag)
          true
          (r.Driver.Compile.collections > 0))
    [
      ("opt-big", true, true, 65536, Driver.Compile.Precise, true, false);
      ("noopt-small", false, true, small, Driver.Compile.Precise, true, true);
      ("opt-small", true, true, small, Driver.Compile.Precise, false, true);
      ("noopt-tiny", false, true, tiny, Driver.Compile.Precise, false, true);
      ("opt-tiny", true, true, tiny, Driver.Compile.Precise, true, true);
      ("nochk-small", false, false, small, Driver.Compile.Precise, false, true);
      ("optnochk-small", true, false, small, Driver.Compile.Precise, true, true);
      ("gen-small", false, true, small, Driver.Compile.Generational, true, true);
      ("gen-opt-tiny", true, true, tiny, Driver.Compile.Generational, false, true);
      ("inc-small", false, true, small, Driver.Compile.Incremental, false, true);
      ("inc-opt-small", true, true, small, Driver.Compile.Incremental, true, true);
      ("conservative", false, true, small * 3, Driver.Compile.Conservative, true, false);
    ]

(* ------------------------------------------------------------------ *)
(* Scenario programs                                                   *)
(* ------------------------------------------------------------------ *)

(* Garbage churn with a survivor list. *)
let churn_src =
  "MODULE C;\n\
   TYPE Node = RECORD v: INTEGER; n: L END; L = REF Node;\n\
   VAR keep, t: L; i, r, s: INTEGER;\n\
   PROCEDURE Build(n: INTEGER): L;\n\
   VAR l: L; i: INTEGER;\n\
   BEGIN l := NIL;\n\
   FOR i := 1 TO n DO t := NEW(L); t.v := i; t.n := l; l := t END;\n\
   RETURN l END Build;\n\
   PROCEDURE Sum(l: L): INTEGER;\n\
   VAR s: INTEGER; BEGIN s := 0; WHILE l # NIL DO s := s + l.v; l := l.n END; RETURN s\n\
   END Sum;\n\
   BEGIN\n\
   keep := Build(12); s := 0;\n\
   FOR r := 1 TO 40 DO s := s + Sum(Build(30)) END;\n\
   PutInt(s + Sum(keep)); PutLn()\n\
   END C.\n"

(* VAR parameters into heap objects across collections (derived argument
   slots, AP-relative derivations). *)
let varparam_src =
  "MODULE V;\n\
   TYPE R = RECORD a, b, c: INTEGER END; P = REF R;\n\
   L = REF RECORD x: INTEGER; n: REF INTEGER END;\n\
   VAR g: P; i: INTEGER;\n\
   PROCEDURE Churn(n: INTEGER): INTEGER;\n\
   VAR l: L; k: INTEGER;\n\
   BEGIN FOR k := 1 TO n DO l := NEW(L); l.x := k END; RETURN l.x END Churn;\n\
   PROCEDURE Bump(VAR slot: INTEGER; by: INTEGER): INTEGER;\n\
   VAR w: INTEGER;\n\
   BEGIN w := Churn(20); slot := slot + by; RETURN w END Bump;\n\
   BEGIN\n\
   g := NEW(P); g.a := 1; g.b := 10; g.c := 100;\n\
   FOR i := 1 TO 20 DO\n\
   \  i := i + 0 + Bump(g.b, 1) * 0;\n\
   \  i := i + Bump(g.c, 2) * 0\n\
   END;\n\
   PutInt(g.a); PutChar(' '); PutInt(g.b); PutChar(' '); PutInt(g.c); PutLn()\n\
   END V.\n"

(* WITH aliases over heap places across collections. *)
let alias_src =
  "MODULE W;\n\
   TYPE E = RECORD v: INTEGER END;\n\
   A = REF ARRAY OF E;\n\
   L = REF RECORD x: INTEGER END;\n\
   VAR arr: A; i, r: INTEGER; l: L;\n\
   PROCEDURE Churn(n: INTEGER): INTEGER;\n\
   VAR k: INTEGER;\n\
   BEGIN FOR k := 1 TO n DO l := NEW(L); l.x := k END; RETURN l.x END Churn;\n\
   BEGIN\n\
   arr := NEW(A, 10);\n\
   FOR i := 0 TO 9 DO arr[i].v := i END;\n\
   FOR r := 1 TO 15 DO\n\
   \  FOR i := 0 TO 9 DO\n\
   \    WITH cell = arr[i] DO\n\
   \      r := r + Churn(5) * 0;\n\
   \      cell.v := cell.v + 1\n\
   \    END\n\
   \  END\n\
   END;\n\
   PutInt(arr[0].v); PutChar(' '); PutInt(arr[9].v); PutLn()\n\
   END W.\n"

(* Deep recursion: pointers in callee-saved registers and frames at many
   depths, reconstructed during the walk. *)
let deep_src =
  "MODULE D;\n\
   TYPE Node = RECORD v: INTEGER; n: L END; L = REF Node;\n\
   VAR x: INTEGER;\n\
   PROCEDURE Deep(n: INTEGER; acc: L): INTEGER;\n\
   VAR mine, junk: L; k: INTEGER;\n\
   BEGIN\n\
   \  mine := NEW(L); mine.v := n; mine.n := acc;\n\
   \  FOR k := 1 TO 6 DO junk := NEW(L); junk.v := k END;\n\
   \  IF n = 0 THEN RETURN Count(mine) END;\n\
   \  RETURN Deep(n - 1, mine) + mine.v * 0\n\
   END Deep;\n\
   PROCEDURE Count(l: L): INTEGER;\n\
   VAR c: INTEGER;\n\
   BEGIN c := 0; WHILE l # NIL DO c := c + 1; l := l.n END; RETURN c END Count;\n\
   BEGIN\n\
   x := Deep(120, NIL);\n\
   PutInt(x); PutLn()\n\
   END D.\n"

(* Pointers inside records inside local (stack) aggregates: frame aggregate
   entries in the ground table. *)
let stackagg_src =
  "MODULE S;\n\
   TYPE P = REF RECORD v: INTEGER END;\n\
   VAR i, s: INTEGER;\n\
   PROCEDURE Go(): INTEGER;\n\
   VAR slots: ARRAY [0..4] OF P; i, s: INTEGER; junk: P;\n\
   BEGIN\n\
   \  FOR i := 0 TO 4 DO slots[i] := NEW(P); slots[i].v := i * 10 END;\n\
   \  (* churn to force moves while the array of pointers sits in the frame *)\n\
   \  FOR i := 1 TO 50 DO junk := NEW(P); junk.v := i END;\n\
   \  s := 0;\n\
   \  FOR i := 0 TO 4 DO s := s + slots[i].v END;\n\
   \  RETURN s\n\
   END Go;\n\
   BEGIN\n\
   s := 0;\n\
   FOR i := 1 TO 10 DO s := s + Go() END;\n\
   PutInt(s); PutLn()\n\
   END S.\n"

(* Globals with pointers, including a global record and text survival. *)
let globals_src =
  "MODULE G;\n\
   TYPE P = REF RECORD v: INTEGER END;\n\
   R = RECORD first: P; second: P END;\n\
   VAR box: R; t: TEXT; i: INTEGER; junk: P;\n\
   BEGIN\n\
   box.first := NEW(P); box.first.v := 5;\n\
   box.second := NEW(P); box.second.v := 6;\n\
   t := \"survives\";\n\
   FOR i := 1 TO 200 DO junk := NEW(P); junk.v := i END;\n\
   PutInt(box.first.v + box.second.v); PutChar(' '); PutText(t); PutLn()\n\
   END G.\n"

let test_churn () = matrix "churn" churn_src
let test_varparam () = matrix "varparam" varparam_src
let test_alias () = matrix "alias" alias_src
let test_deep () = matrix ~small:700 ~tiny:500 "deep" deep_src
let test_stackagg () = matrix "stackagg" stackagg_src
let test_globals () = matrix ~small:300 ~tiny:150 "globals" globals_src
let test_srgc () =
  matrix ~small:400 ~tiny:300 "ambig" Programs.Ambig_src.src

(* ------------------------------------------------------------------ *)
(* Collector-level properties                                          *)
(* ------------------------------------------------------------------ *)

let test_compaction () =
  (* After every precise collection the live data is contiguous at the
     bottom of the new from-space: allocation resumes right after it. *)
  let img =
    Driver.Compile.compile
      ~options:{ Driver.Compile.default_options with heap_words = 400 }
      churn_src
  in
  let st = Vm.Interp.create img in
  Gc.Cheney.install st;
  (* Wrap the collector to record the post-collection invariant. *)
  let orig = Option.get st.Vm.Interp.collector in
  let ok = ref true in
  st.Vm.Interp.collector <-
    Some
      (fun s ~needed ->
        orig s ~needed;
        if s.Vm.Interp.alloc < s.Vm.Interp.from_base then ok := false;
        if s.Vm.Interp.alloc > s.Vm.Interp.from_base + s.Vm.Interp.semi_words then
          ok := false);
  Vm.Interp.run st;
  check Alcotest.bool "collected" true (st.Vm.Interp.gc.Vm.Interp.collections > 0);
  check Alcotest.bool "allocation pointer stays inside the new space" true !ok

(* The verifier's geometry check: from-space and to-space must be the
   image's two semispaces. A machine that has collected passes; to-space
   moved onto from-space, or from-space moved off the two-semispace grid,
   is reported. *)
let test_verify_geometry () =
  let img =
    Driver.Compile.compile
      ~options:{ Driver.Compile.default_options with heap_words = 400 }
      churn_src
  in
  let st = Vm.Interp.create img in
  Gc.Cheney.install st;
  Vm.Interp.run st;
  check Alcotest.bool "collected" true (st.Vm.Interp.gc.Vm.Interp.collections > 0);
  let verify () = Gc.Verify.check st ~phase:"post" ~frames:[] () in
  check Alcotest.(list string) "unmodified machine" [] (verify ()).Gc.Verify.violations;
  let reported what =
    match verify () with
    | _ -> Alcotest.failf "%s: not reported" what
    | exception Vm.Vm_error.Error (Vm.Vm_error.Verify_failed { violations; _ }) ->
        check Alcotest.bool what true
          (List.exists (String.starts_with ~prefix:"semispaces misplaced") violations)
  in
  let from_base = st.Vm.Interp.from_base and to_base = st.Vm.Interp.to_base in
  st.Vm.Interp.to_base <- from_base;
  reported "to-space on from-space";
  st.Vm.Interp.to_base <- to_base;
  st.Vm.Interp.from_base <- from_base + 8;
  reported "from-space off the grid";
  st.Vm.Interp.from_base <- from_base;
  check Alcotest.(list string) "restored machine" [] (verify ()).Gc.Verify.violations

let test_live_shrinks_garbage () =
  (* The words copied per collection are bounded by the survivors, far less
     than what was allocated. *)
  let r = run ~heap:400 churn_src in
  let gc = r.Driver.Compile.gc in
  check Alcotest.bool "copied less than allocated" true
    (gc.Vm.Interp.words_copied < r.Driver.Compile.alloc_words)

let test_frames_traced () =
  let r = run ~heap:500 deep_src in
  let gc = r.Driver.Compile.gc in
  check Alcotest.bool "collections happened" true (gc.Vm.Interp.collections > 0);
  check Alcotest.bool "frames traced at every collection" true
    (gc.Vm.Interp.frames_traced > gc.Vm.Interp.collections)

let test_conservative_retains_reachable () =
  (* The conservative collector must never free reachable data either. *)
  List.iter
    (fun src ->
      let precise = run src in
      let cons = run ~collector:Driver.Compile.Conservative ~heap:1500 src in
      check Alcotest.string "conservative output" precise.Driver.Compile.output
        cons.Driver.Compile.output)
    [ churn_src; varparam_src; alias_src; stackagg_src; globals_src ]

let test_conservative_fragmentation_visible () =
  (* After conservative collections there is a free list (non-moving);
     the precise collector never needs one. *)
  let img =
    Driver.Compile.compile
      ~options:{ Driver.Compile.default_options with heap_words = 1500 }
      churn_src
  in
  let st = Vm.Interp.create img in
  let _inc = Gc.Incremental.install_conservative st in
  Vm.Interp.run st;
  check Alcotest.bool "conservative collected" true
    (st.Vm.Interp.gc.Vm.Interp.collections > 0);
  let nblocks, total, largest = Vm.Interp.free_list_stats st in
  check Alcotest.bool "free list exists" true (nblocks > 0 && total > 0 && largest > 0)

(* A3 ([bench/main.exe baseline]), pinned: for each program, the
   conservative baseline's output, collections, objects marked over all
   collections, words held by objects at exit, and free-list blocks and
   largest block at exit. Recorded since the baseline sweeps as the
   incremental collector does (most-recently-swept block first, a free
   run at the frontier retreats it); a change to what ambiguous words
   pin, or to where the free list places objects, moves them. *)
let test_a3_pinned () =
  List.iter
    (fun (name, src, heap, expected) ->
      let img =
        Driver.Compile.compile
          ~options:{ Driver.Compile.default_options with optimize = true; heap_words = heap }
          src
      in
      let st = Vm.Interp.create img in
      let inc = Gc.Incremental.install_conservative st in
      Vm.Interp.run st;
      let blocks, free, largest = Vm.Interp.free_list_stats st in
      check Alcotest.string name expected
        (Printf.sprintf "%S gcs=%d marked=%d retained=%d blocks=%d largest=%d"
           (Vm.Interp.output st) st.Vm.Interp.gc.Vm.Interp.collections
           inc.Vm.Interp.inc_marked_objects
           (st.Vm.Interp.alloc - st.Vm.Interp.from_base - free)
           blocks largest))
    [
      ( "destroy",
        Programs.Destroy_src.make ~branch:4 ~depth:5 ~replace_depth:2 ~iterations:400,
        24000,
        {|"destroy: nodes=1365 checksum=1200\n" gcs=8 marked=14384 retained=18333 blocks=1 largest=4572|}
      );
      ( "typereg",
        Programs.Typereg_src.src,
        6000,
        {|"typereg: registered=68 hits=182 probes>0=1\n" gcs=2 marked=1125 retained=3684 blocks=43 largest=1845|}
      );
      ( "ambig",
        Programs.Ambig_src.src,
        800,
        {|"ambig: s=6360\n" gcs=1 marked=3 retained=712 blocks=1 largest=87|} );
    ]

(* The object-start bitmap against the sorted-array lookup it replaced,
   over random parsed heaps: objects of every descriptor of an image
   (data words random, heap addresses included), fillers between them,
   and every word from below the heap to beyond the frontier. *)
let prop_object_lookup =
  let img = Driver.Compile.compile Programs.Typereg_src.src in
  let sizes = img.Vm.Image.layouts.Rt.Typedesc.sizes in
  QCheck.Test.make ~name:"object-start bitmap finds the oracle's object" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_bound 40) (triple bool small_nat small_nat))
        (list small_int))
    (fun (pieces, noise) ->
      let st = Vm.Interp.create img in
      let inc = Gc.Incremental.install_conservative st in
      let mem = st.Vm.Interp.mem and base = st.Vm.Interp.from_base in
      let noise = Array.of_list (0 :: noise) in
      let a = ref base and objects = ref [] in
      List.iteri
        (fun k (obj, x, y) ->
          let words =
            if obj then Rt.Typedesc.words sizes.(x mod Array.length sizes) ~length:(y mod 12)
            else 1 + (y mod 30)
          in
          if !a + words <= base + st.Vm.Interp.semi_words then begin
            for i = !a to !a + words - 1 do
              (* Data words: small noise, or addresses in and around the heap. *)
              let n = noise.((i + k) mod Array.length noise) in
              Vm.Mem.set mem i (if n land 1 = 0 then n else base + (n mod 200) - 5)
            done;
            if obj then begin
              let d = x mod Array.length sizes in
              Vm.Mem.set mem !a d;
              if sizes.(d) <= 0 then Vm.Mem.set mem (!a + 1) (y mod 12);
              objects := (!a, words) :: !objects
            end
            else Vm.Mem.set mem !a (-words);
            a := !a + words
          end)
        pieces;
      st.Vm.Interp.alloc <- !a;
      Gc.Incremental.find_starts st inc;
      let oracle = Find_object_oracle.of_objects !objects in
      List.for_all
        (fun v ->
          let got = Gc.Incremental.object_containing st inc v in
          let want = Find_object_oracle.find_object oracle v in
          (if got < 0 then None else Some got) = want)
        (List.init (!a - base + 20) (fun i -> base - 10 + i) @ [ 0; -1; max_int; min_int ]))

let test_forced_gc_checks () =
  (* loop gc-points + forced checks: collections at loop headers (threads
     story of §5.3) must preserve behaviour, on both engines alike. The
     loop storm forces them through the wrapped gc-point poll. *)
  let options =
    {
      Driver.Compile.default_options with
      loop_gcpoints = true;
      heap_words = 2000;
    }
  in
  let img = Driver.Compile.compile ~options churn_src in
  let reference = run churn_src in
  let run_engine threaded =
    let st = Vm.Interp.create img in
    Gc.Cheney.install st;
    Fault.Faultinject.arm_runtime st Fault.Faultinject.Loop_storm;
    if threaded then Vm.Threaded.run st else Vm.Interp.run st;
    st
  in
  let switch = run_engine false and threaded = run_engine true in
  List.iter
    (fun (engine, st) ->
      check Alcotest.string (engine ^ ": output under forced loop collections")
        reference.Driver.Compile.output (Vm.Interp.output st);
      (* One collection per loop check executed: the count recorded when
         the forced collection sat in the loop check itself. *)
      check Alcotest.int (engine ^ ": forced collections") 1253
        st.Vm.Interp.gc.Vm.Interp.collections)
    [ ("switch", switch); ("threaded", threaded) ];
  check Alcotest.int "icount across engines" switch.Vm.Interp.icount threaded.Vm.Interp.icount;
  check Alcotest.bool "final store across engines" true
    (Vm.Mem.equal switch.Vm.Interp.mem threaded.Vm.Interp.mem)

let test_noalloc_configuration_safe () =
  (* With the noalloc analysis on, fewer calls are gc-points, but behaviour
     under pressure must be identical. *)
  List.iter
    (fun src ->
      let reference = run src in
      let options =
        {
          Driver.Compile.default_options with
          noalloc_analysis = true;
          heap_words = 400;
          optimize = true;
        }
      in
      let r = Driver.Compile.run_source ~options ~collector:Driver.Compile.Precise ~threaded:false src in
      check Alcotest.string "noalloc output" reference.Driver.Compile.output
        r.Driver.Compile.output)
    [ churn_src; varparam_src; alias_src ]

let test_table_scheme_configurations () =
  (* Every collector must decode every table configuration identically. *)
  let reference = run churn_src in
  List.iter
    (fun (collector, threaded) ->
      List.iter
        (fun (name, scheme, opts) ->
          let options =
            { Driver.Compile.default_options with heap_words = 400; scheme; table_opts = opts }
          in
          let r = Driver.Compile.run_source ~options ~collector ~threaded churn_src in
          let name = name ^ " " ^ Driver.Compile.Config.collector_name collector in
          check Alcotest.string name reference.Driver.Compile.output r.Driver.Compile.output;
          check Alcotest.bool (name ^ " collected") true (r.Driver.Compile.collections > 0))
        Gcmaps.Table_stats.configs)
    [ (Driver.Compile.Precise, true); (Driver.Compile.Generational, false);
      (Driver.Compile.Incremental, true) ]

(* Forward's four bad roots, each reached through a pointer field of a
   live object, so the corruption is met by the Cheney scan. The fake
   object sits inside a live INTEGER array's elements: those
   words are copied as data, so any header and length can be planted
   there, and the array itself is copied before the scan reaches the
   fake, so the destination has less room left than the source. *)
let badroot_src =
  "MODULE BadRoot;\n\
   TYPE Node = RECORD v: INTEGER; n: L END; L = REF Node; A = REF ARRAY OF INTEGER;\n\
   VAR keep: L; arr: A;\n\
   PROCEDURE Churn(n: INTEGER);\n\
   VAR t: L; i: INTEGER;\n\
   BEGIN FOR i := 1 TO n DO t := NEW(L); t.v := i END END Churn;\n\
   BEGIN keep := NEW(L); arr := NEW(A, 50); Churn(1000) END BadRoot.\n"

let test_forward_bad_roots () =
  let img =
    Driver.Compile.compile
      ~options:{ Driver.Compile.default_options with heap_words = 400 }
      badroot_src
  in
  let sizes = img.Vm.Image.layouts.Rt.Typedesc.sizes in
  (* [plant mem ~src_hi v] writes the fake object at [v] and returns the
     error forward must raise for it. *)
  let cases =
    [
      ( "non-descriptor header",
        fun mem ~src_hi:_ v ->
          Vm.Mem.set mem v 9999;
          (9999, "header 9999 is not a type descriptor (untidy root?)") );
      ( "negative open length",
        fun mem ~src_hi:_ v ->
          let open_d = Vm.Mem.get mem (v - 2) in
          Vm.Mem.set mem v open_d;
          Vm.Mem.set mem (v + 1) (-3);
          (open_d, "open array has negative length -3") );
      ( "source overrun",
        fun mem ~src_hi v ->
          let open_d = Vm.Mem.get mem (v - 2) in
          Vm.Mem.set mem v open_d;
          Vm.Mem.set mem (v + 1) (src_hi - v);
          ( open_d,
            Printf.sprintf "object of %d words overruns its source region" (src_hi - v + 2) ) );
      ( "destination overrun",
        fun mem ~src_hi v ->
          let open_d = Vm.Mem.get mem (v - 2) in
          Vm.Mem.set mem v open_d;
          Vm.Mem.set mem (v + 1) (src_hi - v - 2);
          ( open_d,
            Printf.sprintf "object of %d words overruns its destination region" (src_hi - v)
          ) );
    ]
  in
  List.iter
    (fun (what, plant) ->
      let st = Vm.Interp.create img in
      Gc.Cheney.install st;
      let expected = ref None in
      st.Vm.Interp.collector <-
        Some
          (fun s ~needed ->
            let mem = s.Vm.Interp.mem in
            let roots = List.map (Vm.Mem.get mem) img.Vm.Image.global_roots in
            let arr = List.find (fun o -> sizes.(Vm.Mem.get mem o) <= 0) roots in
            let keep = List.find (fun o -> o <> arr) roots in
            let fake = arr + Rt.Typedesc.open_header_words in
            let src_hi = s.Vm.Interp.from_base + s.Vm.Interp.semi_words in
            let value, reason = plant mem ~src_hi fake in
            let next = img.Vm.Image.layouts.Rt.Typedesc.offsets.(Vm.Mem.get mem keep).(0) in
            Vm.Mem.set mem (keep + next) fake;
            expected :=
              Some
                (Vm.Vm_error.Bad_root
                   { loc = Printf.sprintf "from-space word %d" fake; value; reason });
            Gc.Cheney.collect s ~needed);
      match Vm.Interp.run st with
      | () -> Alcotest.failf "%s: the run finished without a bad root" what
      | exception Vm.Vm_error.Error e ->
          check Alcotest.string what
            (Vm.Vm_error.to_string (Option.get !expected))
            (Vm.Vm_error.to_string e);
          check Alcotest.bool (what ^ ": exact error value") true
            (Some e = !expected))
    cases

(* A minor collection scans the objects placed in the old generation in
   place; their headers never passed forward's checks, so a corrupt one
   must be a bad root too — not an out-of-bounds scan, and for an open
   array with a negative length, not a scan pointer that moves backwards.
   The big INTEGER array is placed in the old generation, and the first
   minor after its allocation scans it. *)
let placed_src =
  "MODULE Placed;\n\
   TYPE Node = RECORD v: INTEGER; n: L END; L = REF Node; A = REF ARRAY OF INTEGER;\n\
   VAR big: A; keep: L;\n\
   PROCEDURE Churn(n: INTEGER);\n\
   VAR t: L; i: INTEGER;\n\
   BEGIN FOR i := 1 TO n DO t := NEW(L); t.v := i END END Churn;\n\
   BEGIN big := NEW(A, 400); keep := NEW(L); Churn(1000) END Placed.\n"

let test_placed_bad_headers () =
  let img =
    Driver.Compile.compile
      ~options:{ Driver.Compile.default_options with heap_words = 2000 }
      placed_src
  in
  List.iter
    (fun (what, header, length, reason) ->
      let st = Vm.Interp.create img in
      Gc.Nursery.install ~nursery_words:300 st;
      let g = Option.get st.Vm.Interp.gen in
      let collect = Option.get st.Vm.Interp.collector in
      let big = ref (-1) in
      st.Vm.Interp.collector <-
        Some
          (fun s ~needed ->
            (match g.Vm.Interp.big_objects with
            | [ a ] ->
                big := a;
                if header >= 0 then Vm.Mem.set s.Vm.Interp.mem a header;
                Vm.Mem.set s.Vm.Interp.mem (a + 1) length
            | _ -> Alcotest.failf "%s: expected one young big object" what);
            collect s ~needed);
      match Vm.Interp.run st with
      | () -> Alcotest.failf "%s: the run finished without a bad root" what
      | exception Vm.Vm_error.Error e ->
          let value = if header >= 0 then header else Vm.Mem.get st.Vm.Interp.mem !big in
          check Alcotest.string what
            (Vm.Vm_error.to_string
               (Vm.Vm_error.Bad_root
                  { loc = Printf.sprintf "placed object at word %d" !big; value; reason }))
            (Vm.Vm_error.to_string e))
    [
      ("non-descriptor header", 9999, 400, "header 9999 is not a type descriptor (untidy root?)");
      ("negative open length", -1, -5, "open array has negative length -5");
    ]

let () =
  Alcotest.run "gc"
    [
      ( "scenarios",
        [
          Alcotest.test_case "churn" `Quick test_churn;
          Alcotest.test_case "VAR params into heap" `Quick test_varparam;
          Alcotest.test_case "WITH aliases" `Quick test_alias;
          Alcotest.test_case "deep recursion" `Quick test_deep;
          Alcotest.test_case "stack aggregates" `Quick test_stackagg;
          Alcotest.test_case "global roots and texts" `Quick test_globals;
          Alcotest.test_case "ambiguous derivations" `Quick test_srgc;
        ] );
      ( "properties",
        [
          Alcotest.test_case "compaction" `Quick test_compaction;
          Alcotest.test_case "copies bounded by survivors" `Quick
            test_live_shrinks_garbage;
          Alcotest.test_case "frames traced" `Quick test_frames_traced;
          Alcotest.test_case "conservative retains" `Quick
            test_conservative_retains_reachable;
          Alcotest.test_case "conservative fragmentation" `Quick
            test_conservative_fragmentation_visible;
          Alcotest.test_case "A3 pinned" `Quick test_a3_pinned;
          QCheck_alcotest.to_alcotest prop_object_lookup;
          Alcotest.test_case "forced loop gc-points" `Quick test_forced_gc_checks;
          Alcotest.test_case "noalloc analysis safe" `Quick test_noalloc_configuration_safe;
          Alcotest.test_case "all table schemes" `Quick test_table_scheme_configurations;
          Alcotest.test_case "placed objects' bad headers" `Quick test_placed_bad_headers;
          Alcotest.test_case "forward's bad roots" `Quick test_forward_bad_roots;
          Alcotest.test_case "verifier checks the semispace geometry" `Quick test_verify_geometry;
        ] );
    ]
