(* Profile-guided placement tests.

   Placement is a pure runtime switch: every configuration — no policy,
   pretenure-all, pool-all and a policy derived from a real profile —
   must produce byte-identical output and
   instruction counts on both engines and both precise collectors, under
   the post-collection heap verifier. A profile-derived policy must also
   never increase the total words the collectors copy (that is the whole
   point). The boundary units pin the nursery-capacity cutoff between the
   placed path and the big-object path, and the mutation units pin the
   old→young edges a placed object can hold: one created by a store
   whose barrier was elided, which the first minor after the object's
   allocation must scan, and one created after that minor, which only the
   barrier may cover. The mm-policy serialization round-trips under
   qcheck. *)

module T = Telemetry
module C = Driver.Compile

let check = Alcotest.check

let fresh f () =
  T.Metrics.reset ();
  T.Trace.clear ();
  T.Control.enable ();
  Fun.protect ~finally:T.Control.disable f

(* Every run in this file executes under the post-collection verifier. *)
let verified f =
  Gc.Verify.set_post true;
  Fun.protect ~finally:(fun () -> Gc.Verify.set_post false) f

(* Index of the first occurrence of [needle] in [s]. *)
let find_sub s needle =
  let n = String.length needle in
  let rec go i =
    if i + n > String.length s then None
    else if String.sub s i n = needle then Some i
    else go (i + 1)
  in
  go 0

let compile ~heap src =
  C.compile ~options:{ C.default_options with heap_words = heap } src

(* A generational machine with the decision codes installed, not yet run,
   for tests that reach into it. *)
let placed_machine ~nursery img codes =
  let st = Vm.Interp.create img in
  Vm.Interp.set_placement st ~source:"file" codes;
  Gc.Nursery.install ~nursery_words:nursery st;
  st

let pool_all_codes img =
  fst (Policy.decisions_for (Policy.uniform Policy.Pool (C.sites_for img)) (C.sites_for img))

(* Run [img] under an explicit engine, bypassing MM_THREADED. *)
let run_with ?policy ?profile ?(nursery = 512) ~threaded ~gen img =
  let was = Vm.Threaded.enabled () in
  Fun.protect
    ~finally:(fun () -> Vm.Threaded.set_enabled was)
    (fun () ->
      Vm.Threaded.set_enabled threaded;
      C.run
        ~collector:(if gen then C.Generational else C.Precise)
        ~nursery_words:nursery ?policy ?profile img)

(* ------------------------------------------------------------------ *)
(* mm-policy JSON round-trip                                           *)
(* ------------------------------------------------------------------ *)

let gen_policy =
  let open QCheck.Gen in
  let ident = string_size ~gen:(char_range 'a' 'z') (int_range 1 12) in
  let entry =
    ident >>= fun proc ->
    int_range 1 999 >>= fun line ->
    int_range 0 80 >>= fun col ->
    int_range 0 50 >>= fun tdesc ->
    bool >>= fun open_ ->
    oneofl [ Policy.Nursery; Policy.Pretenure; Policy.Pool ] >>= fun d ->
    float_range 0.0 1.0 >>= fun rate ->
    int_range 0 100_000 >>= fun samples ->
    int_range 0 100_000 >>= fun allocs ->
    return
      {
        Policy.e_proc = proc;
        e_line = line;
        e_col = col;
        e_tdesc = tdesc;
        e_open = open_;
        e_decision = d;
        e_rate = rate;
        e_samples = samples;
        e_allocs = allocs;
      }
  in
  float_range 0.0 1.0 >>= fun pr ->
  int_range 0 1000 >>= fun msw ->
  int_range 0 1000 >>= fun pma ->
  list_size (int_range 0 20) entry >>= fun entries ->
  return
    {
      Policy.thresholds =
        { Policy.pretenure_rate = pr; min_sample_words = msw; pool_min_allocs = pma };
      entries;
    }

let test_roundtrip =
  QCheck.Test.make ~count:200 ~name:"mm-policy JSON round-trip"
    (QCheck.make gen_policy) (fun p ->
      let text = T.Json.to_string (Policy.to_json p) in
      Policy.of_json (T.Json.parse text) = p)

let test_bad_documents () =
  let rejects doc =
    match Policy.of_json (T.Json.parse doc) with
    | exception Policy.Policy_error _ -> true
    | _ -> false
  in
  check Alcotest.bool "wrong schema rejected" true
    (rejects {|{"schema":"mm-profile","version":1,"sites":[]}|});
  check Alcotest.bool "wrong version rejected" true
    (rejects {|{"schema":"mm-policy","version":99,"sites":[]}|});
  check Alcotest.bool "missing sites rejected" true
    (rejects {|{"schema":"mm-policy","version":1}|});
  check Alcotest.bool "bad decision rejected" true
    (rejects
       {|{"schema":"mm-policy","version":1,"sites":[{"proc":"P","line":1,"col":1,"tdesc":0,"decision":"eden"}]}|})

(* ------------------------------------------------------------------ *)
(* Classifier                                                          *)
(* ------------------------------------------------------------------ *)

let test_classify () =
  let th = Policy.default_thresholds in
  let c = Policy.classify th in
  check Alcotest.bool "under-sampled site stays in the nursery" true
    (c ~allocs:1000 ~survived_words:63 ~dead_words:0 = Policy.Nursery);
  check Alcotest.bool "low survival stays in the nursery" true
    (c ~allocs:1000 ~survived_words:50 ~dead_words:950 = Policy.Nursery);
  check Alcotest.bool "high survival, few allocs pretenures" true
    (c ~allocs:10 ~survived_words:900 ~dead_words:100 = Policy.Pretenure);
  check Alcotest.bool "high survival, many allocs pools" true
    (c ~allocs:1000 ~survived_words:900 ~dead_words:100 = Policy.Pool);
  check Alcotest.bool "exactly at the rate floor leaves the nursery" true
    (c ~allocs:10 ~survived_words:80 ~dead_words:20 = Policy.Pretenure)

(* ------------------------------------------------------------------ *)
(* Nursery-capacity boundary                                           *)
(* ------------------------------------------------------------------ *)

(* An open INTEGER array of W words occupies header + W heap words; with
   the header that is exactly the nursery capacity at W = cap - header,
   one word over it at W = cap - header + 1. At or under the capacity a
   pretenure policy routes the object through the placed path (counted in
   gc.pretenured_words); over it the ordinary big-object path takes over
   and the placement counters must not move. *)
let edge_src words =
  Printf.sprintf
    {|MODULE Edge;
TYPE Ints = REF ARRAY OF INTEGER;
VAR a, b: Ints; i, sum: INTEGER;
BEGIN
  a := NEW(Ints, %d);
  a[%d] := 42;
  sum := 0;
  FOR i := 1 TO 400 DO
    b := NEW(Ints, 8);
    b[0] := i;
    sum := sum + b[0]
  END;
  PutInt(a[%d]); PutText(" "); PutInt(sum); PutLn()
END Edge.|}
    words (words - 1) (words - 1)

let test_boundary () =
  verified (fun () ->
      let nursery = 400 in
      let cap_words = nursery - Rt.Typedesc.open_header_words in
      List.iter
        (fun (label, words, expect_pretenured) ->
          T.Metrics.reset ();
          let img = compile ~heap:8192 (edge_src words) in
          let policy = Policy.uniform Policy.Pretenure (C.sites_for img) in
          let r = run_with ~policy ~nursery ~threaded:false ~gen:true img in
          let base = run_with ~nursery ~threaded:false ~gen:true img in
          check Alcotest.string (label ^ ": output matches no-policy run")
            base.C.output r.C.output;
          check Alcotest.int (label ^ ": icount matches no-policy run")
            base.C.instructions r.C.instructions;
          (* The 400 churn arrays (10 words each) are pretenured under the
             pretenure-all policy in both cases; the boundary object's own
             words land in the counter only when it fits the capacity. *)
          let churn_words = 400 * (8 + Rt.Typedesc.open_header_words) in
          check Alcotest.int
            (label
            ^
            if expect_pretenured then ": boundary object itself was pretenured"
            else ": over-capacity object not placement-counted")
            (if expect_pretenured then churn_words + nursery else churn_words)
            (T.Metrics.counter_value "gc.pretenured_words"))
        [
          ("exactly nursery-sized", cap_words, true);
          ("nursery-sized + 1", cap_words + 1, false);
        ])

(* A pretenured object mutated to point at a nursery object: the nursery
   referent must survive every minor collection. The first minor after
   the object's allocation scans it, covering any store whose write
   barrier the compiler elided; every later store into it runs its
   barrier, so the verifier's old→young check finds the edge remembered. *)
let mutation_src =
  {|MODULE Mut;
TYPE Node = RECORD v: INTEGER; next: Ref END; Ref = REF Node;
VAR a, t: Ref; i, sum: INTEGER;
BEGIN
  a := NEW(Ref);
  a.v := 7;
  a.next := NIL;
  sum := 0;
  FOR i := 1 TO 2000 DO
    t := NEW(Ref);
    t.v := i;
    a.next := t;
    sum := sum + a.next.v
  END;
  PutInt(a.v); PutText(" "); PutInt(a.next.v); PutText(" "); PutInt(sum); PutLn()
END Mut.|}

let test_pretenured_mutation () =
  verified (fun () ->
      let img = compile ~heap:4096 mutation_src in
      let policy = Policy.uniform Policy.Pretenure (C.sites_for img) in
      let base = run_with ~nursery:400 ~threaded:false ~gen:true img in
      check Alcotest.bool "minors happened" true (base.C.gc.Vm.Interp.minor_collections > 0);
      List.iter
        (fun threaded ->
          let r = run_with ~policy ~nursery:400 ~threaded ~gen:true img in
          let label = if threaded then "threaded" else "switch" in
          check Alcotest.string (label ^ ": output survives the mutated edge")
            base.C.output r.C.output;
          check Alcotest.int (label ^ ": icount unchanged") base.C.instructions
            r.C.instructions)
        [ false; true ])

(* Pool-all places every site, so [a] and each node linked to it are
   pool objects; the test steps the program to a gc-point and drives the
   nursery itself there. *)
let pool_old_src =
  {|MODULE PoolOld;
TYPE Node = RECORD v: INTEGER; next: Ref END; Ref = REF Node;
VAR a: Ref; i, sum: INTEGER;
BEGIN
  a := NEW(Ref);
  a.v := 7;
  sum := 0;
  FOR i := 1 TO 50 DO
    a.next := NEW(Ref);
    a.next.v := i;
    sum := sum + a.next.v
  END;
  PutInt(a.v); PutText(" "); PutInt(sum); PutLn()
END PoolOld.|}

(* A pool object scanned by a minor is old: the minor exempts only the
   pool part allocated since the previous one. A nursery pointer stored
   into it without a barrier must fail the verifier's old→young check;
   the same store with its barrier must pass, and the remembered slot
   must keep the referent alive across the next minor. *)
let test_scanned_pool_object () =
  verified (fun () ->
      let img = compile ~heap:4096 pool_old_src in
      let st = placed_machine ~nursery:400 img (pool_all_codes img) in
      let g = Option.get st.Vm.Interp.gen in
      let mem = st.Vm.Interp.mem in
      let verdict () =
        match Gc.Verify.check st ~phase:"test" ~frames:(Gc.Stackwalk.walk st) () with
        | _ -> []
        | exception Vm.Vm_error.Error (Vm.Vm_error.Verify_failed { violations; _ }) ->
            violations
      in
      let unbarriered = ref [ "not run" ] and barriered = ref [ "not run" ] in
      let survivor = ref (-1) in
      let p_old = ref false and n_young = ref false in
      (* Drive the switch interpreter to the gc-point of the allocation
         that follows the 10th: a call's pc is a gc-point, so the stack
         walks of the minors and the verifier see exact tables there. *)
      let at_alloc () =
        match img.Vm.Image.code.(st.Vm.Interp.pc) with
        | Machine.Insn.Call
            (Machine.Insn.Crt (Mir.Ir.Rt_alloc _ | Mir.Ir.Rt_alloc_open _)) ->
            true
        | _ -> false
      in
      Vm.Interp.reset st;
      while
        (not st.Vm.Interp.halted)
        && not (st.Vm.Interp.alloc_count = 10 && at_alloc ())
      do
        Vm.Interp.step st
      done;
      if st.Vm.Interp.halted then Alcotest.fail "fewer than 11 allocations";
      Gc.Nursery.minor st g;
      (* [a], allocated first, is now a scanned pool object. *)
      let p = Vm.Mem.get mem (List.hd img.Vm.Image.global_roots) in
      let tdid = Vm.Mem.get mem p in
      let words = img.Vm.Image.layouts.Rt.Typedesc.sizes.(tdid) in
      if words <= 0 then Alcotest.fail "Node has a fixed layout";
      let next_off = img.Vm.Image.layouts.Rt.Typedesc.offsets.(tdid).(0) in
      let v_off =
        List.find (fun o -> o <> next_off)
          (List.init (words - Rt.Typedesc.fixed_header_words) (fun i ->
               i + Rt.Typedesc.fixed_header_words))
      in
      p_old := p < g.Vm.Interp.old_alloc;
      let n = Vm.Interp.rt_alloc st tdid ~length:0 in
      n_young := n >= g.Vm.Interp.nursery_base;
      Vm.Mem.set mem (n + v_off) 4242;
      let slot = p + next_off in
      Vm.Mem.set mem slot n;
      unbarriered := verdict ();
      Vm.Interp.barrier_hit st slot;
      barriered := verdict ();
      Gc.Nursery.minor st g;
      let n' = Vm.Mem.get mem slot in
      if n' < g.Vm.Interp.old_alloc then survivor := Vm.Mem.get mem (n' + v_off);
      while not st.Vm.Interp.halted do
        Vm.Interp.step st
      done;
      check Alcotest.bool "the pool object was old" true !p_old;
      check Alcotest.bool "the referent was in the nursery" true !n_young;
      check Alcotest.bool "an unbarriered old→young store is reported" true
        (List.exists (fun v -> find_sub v "holds nursery pointer" <> None) !unbarriered);
      check Alcotest.(list string) "the same store with its barrier passes" [] !barriered;
      check Alcotest.int "the remembered referent survives the next minor" 4242 !survivor;
      check Alcotest.string "program output" "7 1275\n" (Vm.Interp.output st))

(* The store the young high-water mark exists for: [c.item := it] goes
   into a cell fresh from its allocation, so its barrier is elided, and it
   stores a nursery pointer. Placing only the cell site (pool or
   pretenure) puts that unbarriered old→young edge in the old generation;
   the next minor must scan the cell or the item dangles. *)
let spine_src =
  {|MODULE Spine;
TYPE ItemRec = RECORD v: INTEGER END; Item = REF ItemRec;
     Cell = RECORD item: Item; next: List END; List = REF Cell;
VAR list, c: List; it: Item; i, sum: INTEGER;
BEGIN
  list := NIL;
  FOR i := 1 TO 500 DO
    it := NEW(Item);
    it.v := i;
    c := NEW(List);
    c.item := it;
    c.next := list;
    list := c
  END;
  sum := 0;
  c := list;
  WHILE c # NIL DO sum := sum + c.item.v; c := c.next END;
  PutInt(sum); PutLn()
END Spine.|}

let test_fresh_placed_cell () =
  verified (fun () ->
      let img = compile ~heap:8192 spine_src in
      check Alcotest.bool "some barrier was elided" true (img.Vm.Image.barriers_elided > 0);
      let sites = C.sites_for img in
      let cell_line =
        let upto = String.sub spine_src 0 (Option.get (find_sub spine_src "NEW(List)")) in
        List.length (String.split_on_char '\n' upto)
      in
      List.iter
        (fun (label, code) ->
          let codes =
            Array.map
              (fun (site : Profile.site) ->
                if site.Profile.s_line = cell_line then code else Policy.nursery_code)
              sites
          in
          check Alcotest.bool (label ^ ": the cell site is placed") true
            (Array.exists (fun c -> c = code) codes);
          List.iter
            (fun (nursery, threaded) ->
              let name =
                Printf.sprintf "%s/nursery %d/%s" label nursery
                  (if threaded then "threaded" else "switch")
              in
              let base = run_with ~nursery ~threaded ~gen:true img in
              let st = placed_machine ~nursery img codes in
              if threaded then Vm.Threaded.run st else Vm.Interp.run st;
              check Alcotest.bool (name ^ ": minors happened") true
                (st.Vm.Interp.gc.Vm.Interp.minor_collections > 0);
              check Alcotest.string (name ^ ": output") base.C.output (Vm.Interp.output st);
              check Alcotest.int (name ^ ": icount") base.C.instructions st.Vm.Interp.icount)
            [ (300, false); (300, true); (700, false); (700, true) ])
        [ ("pool", Policy.pool_code); ("pretenure", Policy.pretenure_code) ])

(* ------------------------------------------------------------------ *)
(* Differential suite                                                  *)
(* ------------------------------------------------------------------ *)

let destroy_small =
  Programs.Destroy_src.make ~branch:3 ~depth:4 ~replace_depth:2 ~iterations:200

let destroy_ballast =
  Programs.Destroy_src.make_ballast ~ballast:300 ~branch:3 ~depth:4 ~replace_depth:2
    ~iterations:150

(* Derive a policy from a real profiled run of [img] (generational, so
   the lifetime stats are populated by minor collections). *)
let derived_policy img =
  let p = C.profile_for img in
  ignore (run_with ~profile:p ~threaded:false ~gen:true img);
  Policy.derive_from_stats p

let test_differential () =
  verified (fun () ->
      List.iter
        (fun (name, src) ->
          let img = compile ~heap:8192 src in
          let derived = derived_policy img in
          let uniform d = Policy.uniform d (C.sites_for img) in
          List.iter
            (fun threaded ->
              List.iter
                (fun gen ->
                  let label cfg =
                    Printf.sprintf "%s/%s/%s/%s" name
                      (if threaded then "threaded" else "switch")
                      (if gen then "gen" else "flat")
                      cfg
                  in
                  let base = run_with ~threaded ~gen img in
                  let same cfg (r : C.run_result) =
                    check Alcotest.string (label cfg ^ ": output") base.C.output
                      r.C.output;
                    check Alcotest.int (label cfg ^ ": icount") base.C.instructions
                      r.C.instructions
                  in
                  same "pretenure-all"
                    (run_with ~policy:(uniform Policy.Pretenure) ~threaded ~gen img);
                  same "pool-all"
                    (run_with ~policy:(uniform Policy.Pool) ~threaded ~gen img);
                  let d = run_with ~policy:derived ~threaded ~gen img in
                  same "derived" d;
                  if gen then
                    check Alcotest.bool
                      (label "derived" ^ ": no more words copied than baseline")
                      true
                      (d.C.gc.Vm.Interp.words_copied
                      <= base.C.gc.Vm.Interp.words_copied))
                [ false; true ])
            [ false; true ])
        [ ("destroy", destroy_small); ("destroy-ballast", destroy_ballast) ])

(* Randomized differential over the nursery size: it moves every minor
   relative to pool-chunk carving and pretenuring, and so where each young
   high-water mark sits when a minor scans up to it. *)
let ballast_img = lazy (compile ~heap:8192 destroy_ballast)
let ballast_derived = lazy (derived_policy (Lazy.force ballast_img))

let test_random_nursery =
  let configs = [ "pool-all"; "pretenure-all"; "derived" ] in
  QCheck.Test.make ~count:12 ~name:"any nursery size, placement and engine: byte-identical"
    QCheck.(
      triple (int_range 300 2000) (oneofl ~print:Fun.id configs) (bool |> set_print string_of_bool))
    (fun (nursery, cfg, threaded) ->
      let img = Lazy.force ballast_img in
      let policy =
        match cfg with
        | "pool-all" -> Policy.uniform Policy.Pool (C.sites_for img)
        | "pretenure-all" -> Policy.uniform Policy.Pretenure (C.sites_for img)
        | _ -> Lazy.force ballast_derived
      in
      verified (fun () ->
          let base = run_with ~nursery ~threaded ~gen:true img in
          let r = run_with ~policy ~nursery ~threaded ~gen:true img in
          base.C.output = r.C.output && base.C.instructions = r.C.instructions))

(* Pool-all under the fault layer's allocation storm: a collection forced
   at every 7th allocation, placed ones included, so minors land between
   almost any two pool allocations. *)
let test_pool_storm () =
  verified (fun () ->
      let img = Lazy.force ballast_img in
      let base = run_with ~threaded:false ~gen:true img in
      let st = placed_machine ~nursery:512 img (pool_all_codes img) in
      Fault.Faultinject.arm_runtime st (Fault.Faultinject.Alloc_storm { every = 7 });
      Vm.Interp.run st;
      check Alcotest.bool "the storm ran minors" true
        (st.Vm.Interp.gc.Vm.Interp.minor_collections > 0);
      check Alcotest.string "output" base.C.output (Vm.Interp.output st);
      check Alcotest.int "icount" base.C.instructions st.Vm.Interp.icount)

let () =
  Alcotest.run "policy"
    [
      ( "serialization",
        [
          QCheck_alcotest.to_alcotest test_roundtrip;
          Alcotest.test_case "bad documents" `Quick (fresh test_bad_documents);
        ] );
      ("classifier", [ Alcotest.test_case "thresholds" `Quick (fresh test_classify) ]);
      ( "placement",
        [
          Alcotest.test_case "nursery-capacity boundary" `Quick (fresh test_boundary);
          Alcotest.test_case "pretenured object points at nursery" `Quick
            (fresh test_pretenured_mutation);
          Alcotest.test_case "scanned pool object needs its barrier" `Quick
            (fresh test_scanned_pool_object);
          Alcotest.test_case "fresh placed object holds a nursery pointer" `Quick
            (fresh test_fresh_placed_cell);
        ] );
      ( "differential",
        [
          Alcotest.test_case "all configs byte-identical" `Slow (fresh test_differential);
          QCheck_alcotest.to_alcotest test_random_nursery;
          Alcotest.test_case "pool-all under an allocation storm" `Quick
            (fresh test_pool_storm);
        ] );
    ]
