(* Profile-guided placement tests.

   Placement is a pure runtime switch: every configuration — no policy,
   pretenure-all and a policy derived from a real profile — must produce
   byte-identical output and instruction counts on both engines under
   the generational collector and the post-collection heap verifier, and
   the flat collector must refuse a policy. A profile-derived policy must
   also never increase the total words the collectors copy (that is the
   whole point). The boundary units pin the nursery-capacity cutoff between the
   placed path and the big-object path, and the mutation units pin the
   old→young edges a placed object can hold: one created by a store
   whose barrier was elided, which the first minor after the object's
   allocation must scan, and one created after that minor, which only the
   barrier may cover. A policy read back from the mm-profile document
   decides exactly as one derived from the live profiler, and a profile
   of the O0 image places the same sites of the O1 image. *)

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

let pretenure_all_codes img =
  fst
    (Policy.decisions_for (Policy.uniform Policy.Pretenure (C.sites_for img)) (C.sites_for img))

(* Run [img] under an explicit engine. A nursery size and a policy are
   generational settings, passed only with [~gen]. *)
let run_with ?policy ?profile ?(nursery = 512) ~threaded ~gen img =
  if gen then C.run ~collector:C.Generational ~nursery_words:nursery ?policy ?profile ~threaded img
  else C.run ~collector:C.Precise ?profile ~threaded img

(* ------------------------------------------------------------------ *)
(* Classifier                                                          *)
(* ------------------------------------------------------------------ *)

let test_classify () =
  let c = Policy.classify in
  check Alcotest.bool "under-sampled site stays in the nursery" true
    (c ~survived_words:63 ~dead_words:0 = Policy.Nursery);
  check Alcotest.bool "at the sample floor, all survivors pretenure" true
    (c ~survived_words:64 ~dead_words:0 = Policy.Pretenure);
  check Alcotest.bool "low survival stays in the nursery" true
    (c ~survived_words:50 ~dead_words:950 = Policy.Nursery);
  check Alcotest.bool "high survival pretenures" true
    (c ~survived_words:900 ~dead_words:100 = Policy.Pretenure);
  check Alcotest.bool "just under the rate floor stays in the nursery" true
    (c ~survived_words:79 ~dead_words:21 = Policy.Nursery);
  check Alcotest.bool "exactly at the rate floor leaves the nursery" true
    (c ~survived_words:80 ~dead_words:20 = Policy.Pretenure)

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

(* Pretenure-all places every site, so [a] and each node linked to it
   are pretenured; the test steps the program to a gc-point and drives
   the nursery itself there. *)
let placed_old_src =
  {|MODULE PlacedOld;
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
END PlacedOld.|}

(* A pretenured object scanned by a minor is old: the minor exempts only
   the objects placed since the previous one. A nursery pointer stored
   into it without a barrier must fail the verifier's old→young check;
   the same store with its barrier must pass, and the remembered slot
   must keep the referent alive across the next minor. *)
let test_scanned_pretenured_object () =
  verified (fun () ->
      let img = compile ~heap:4096 placed_old_src in
      let st = placed_machine ~nursery:400 img (pretenure_all_codes img) in
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
      (* [a], allocated first, is now a scanned pretenured object. *)
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
      check Alcotest.bool "the pretenured object was old" true !p_old;
      check Alcotest.bool "the referent was in the nursery" true !n_young;
      check Alcotest.bool "an unbarriered old→young store is reported" true
        (List.exists (fun v -> find_sub v "holds nursery pointer" <> None) !unbarriered);
      check Alcotest.(list string) "the same store with its barrier passes" [] !barriered;
      check Alcotest.int "the remembered referent survives the next minor" 4242 !survivor;
      check Alcotest.string "program output" "7 1275\n" (Vm.Interp.output st))

(* The store [big_objects] exists for: [c.item := it] goes into a cell
   fresh from its allocation, so its barrier is elided, and it stores a
   nursery pointer. Pretenuring only the cell site puts that unbarriered
   old→young edge in the old generation; the next minor must scan the
   cell or the item dangles. *)
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
      let codes =
        Array.map
          (fun (site : Profile.site) ->
            if site.Profile.s_line = cell_line then Policy.pretenure_code
            else Policy.nursery_code)
          sites
      in
      check Alcotest.bool "the cell site is placed" true
        (Array.exists (fun c -> c = Policy.pretenure_code) codes);
      List.iter
        (fun (nursery, threaded) ->
          let name =
            Printf.sprintf "nursery %d/%s" nursery (if threaded then "threaded" else "switch")
          in
          let base = run_with ~nursery ~threaded ~gen:true img in
          let st = placed_machine ~nursery img codes in
          if threaded then Vm.Threaded.run st else Vm.Interp.run st;
          check Alcotest.bool (name ^ ": minors happened") true
            (st.Vm.Interp.gc.Vm.Interp.minor_collections > 0);
          check Alcotest.string (name ^ ": output") base.C.output (Vm.Interp.output st);
          check Alcotest.int (name ^ ": icount") base.C.instructions st.Vm.Interp.icount)
        [ (300, false); (300, true); (700, false); (700, true) ])

(* ------------------------------------------------------------------ *)
(* Differential suite                                                  *)
(* ------------------------------------------------------------------ *)

let destroy_small =
  Programs.Destroy_src.make ~branch:3 ~depth:4 ~replace_depth:2 ~iterations:200

let destroy_ballast =
  Programs.Destroy_src.make_ballast ~ballast:300 ~branch:3 ~depth:4 ~replace_depth:2
    ~iterations:150

(* The CLI's PGO example: one long-lived site among short-lived churn. *)
let ballast_src = In_channel.with_open_bin "../examples/ballast.m3l" In_channel.input_all

(* A real profiled run of [img] (generational, so the lifetime stats are
   populated by minor collections). *)
let trained img =
  let p = C.profile_for img in
  ignore (run_with ~profile:p ~threaded:false ~gen:true img);
  p

let derived_policy img = Policy.derive_from_stats (trained img)

(* The profile as mmrun --profile writes it and --placement reads it. *)
let written_document p = T.Json.parse (T.Json.to_string (Profile.to_json p))

(* Flat mode has no nursery to place around, so a policy there is a
   configuration error naming it. *)
let flat_with_policy what img policy =
  match C.run ~collector:C.Precise ~threaded:true ~policy img with
  | exception
      Support.Runtime_config.Config_error
        (Support.Runtime_config.Conflict { second = "~policy"; _ }) ->
      ()
  | _ -> Alcotest.failf "%s: a policy ran under the precise collector" what

(* ------------------------------------------------------------------ *)
(* The profile document as the placement source                        *)
(* ------------------------------------------------------------------ *)

(* The document carries every count the classifier reads, so reading the
   written profile back decides every site exactly as the live profiler
   does, on every program this suite trains. *)
let test_document_decides_alike () =
  let pretenured =
    List.map
      (fun (name, src) ->
        let img = compile ~heap:8192 src in
        let p = trained img in
        let codes policy = fst (Policy.decisions_for policy (C.sites_for img)) in
        let live = codes (Policy.derive_from_stats p) in
        check Alcotest.(array int) (name ^ ": document and live profiler decide alike") live
          (codes (Policy.derive_from_profile (written_document p)));
        Array.exists (fun c -> c = Policy.pretenure_code) live)
      [ ("destroy", destroy_small); ("destroy-ballast", destroy_ballast); ("ballast", ballast_src) ]
  in
  check Alcotest.(list bool) "which programs pretenure a site" [ false; true; true ] pretenured

let test_not_a_profile () =
  let refused doc =
    match Policy.derive_from_profile (T.Json.parse doc) with
    | exception Policy.Policy_error _ -> true
    | _ -> false
  in
  check Alcotest.bool "another schema refused" true
    (refused {|{"schema":"mm-policy","version":2,"sites":[]}|});
  check Alcotest.bool "no schema refused" true (refused {|{"version":1,"sites":[]}|});
  check Alcotest.bool "no sites refused" true (refused {|{"schema":"mm-profile","version":1}|})

(* Placement keys a site by (proc, line, col, tdesc), not by its id: a
   profile of the O0 image places exactly the same sites of the O1 image,
   which runs with the same output and instructions as without
   placement. A site the profile lacks stays in the nursery. *)
let test_o0_profile_places_o1 () =
  verified (fun () ->
      let image optimize =
        C.compile ~options:{ C.default_options with optimize; heap_words = 8192 } destroy_ballast
      in
      let o0 = image false and o1 = image true in
      let doc = written_document (trained o0) in
      let key (s : Profile.site) = (s.Profile.s_proc, s.Profile.s_line, s.Profile.s_col, s.Profile.s_tdesc) in
      let placed img policy =
        let codes, matched = Policy.decisions_for policy (C.sites_for img) in
        check Alcotest.int "every site of the image is in the profile" (Array.length codes) matched;
        List.sort compare
          (List.filteri (fun i _ -> codes.(i) = Policy.pretenure_code)
             (Array.to_list (Array.map key (C.sites_for img))))
      in
      let policy = Policy.derive_from_profile doc in
      let at_o0 = placed o0 policy and at_o1 = placed o1 policy in
      check Alcotest.bool "the O0 profile pretenures a site" true (at_o0 <> []);
      check Alcotest.bool "the O1 image places the same sites" true (at_o0 = at_o1);
      let base = run_with ~threaded:true ~gen:true o1 in
      let r = run_with ~policy ~threaded:true ~gen:true o1 in
      check Alcotest.string "O1 output under the O0 placement" base.C.output r.C.output;
      check Alcotest.int "O1 icount under the O0 placement" base.C.instructions r.C.instructions;
      check Alcotest.bool "fewer words promoted" true
        (r.C.gc.Vm.Interp.words_copied < base.C.gc.Vm.Interp.words_copied);
      (* Drop one pretenured site from the document. *)
      let dropped = List.hd at_o0 in
      let doc_without =
        match doc with
        | T.Json.Obj kvs ->
            let keep s =
              let int k = match T.Json.member k s with Some (T.Json.Int i) -> i | _ -> -1 in
              let proc = match T.Json.member "proc" s with Some (T.Json.Str p) -> p | _ -> "" in
              (proc, int "line", int "col", int "tdesc") <> dropped
            in
            T.Json.Obj
              (List.map
                 (function
                   | "sites", T.Json.List sites -> ("sites", T.Json.List (List.filter keep sites))
                   | kv -> kv)
                 kvs)
        | j -> j
      in
      let codes, matched = Policy.decisions_for (Policy.derive_from_profile doc_without) (C.sites_for o1) in
      check Alcotest.int "the dropped site is unmatched" (Array.length codes - 1) matched;
      Array.iteri
        (fun i (s : Profile.site) ->
          if key s = dropped then
            check Alcotest.int "a site missing from the profile stays in the nursery"
              Policy.nursery_code codes.(i)
          else
            check Alcotest.bool "every other site keeps its decision" true
              (List.mem (key s) at_o1 = (codes.(i) = Policy.pretenure_code)))
        (C.sites_for o1))

let test_differential () =
  verified (fun () ->
      List.iter
        (fun (name, src) ->
          let img = compile ~heap:8192 src in
          let derived = derived_policy img in
          let pretenure_all = Policy.uniform Policy.Pretenure (C.sites_for img) in
          List.iter
            (fun threaded ->
              let label cfg =
                Printf.sprintf "%s/%s/%s" name (if threaded then "threaded" else "switch") cfg
              in
              let base = run_with ~threaded ~gen:true img in
              let same cfg (r : C.run_result) =
                check Alcotest.string (label cfg ^ ": output") base.C.output r.C.output;
                check Alcotest.int (label cfg ^ ": icount") base.C.instructions r.C.instructions
              in
              same "pretenure-all" (run_with ~policy:pretenure_all ~threaded ~gen:true img);
              let d = run_with ~policy:derived ~threaded ~gen:true img in
              same "derived" d;
              check Alcotest.bool
                (label "derived" ^ ": no more words copied than baseline")
                true
                (d.C.gc.Vm.Interp.words_copied <= base.C.gc.Vm.Interp.words_copied))
            [ false; true ];
          flat_with_policy (name ^ "/flat/pretenure-all") img pretenure_all;
          flat_with_policy (name ^ "/flat/derived") img derived)
        [ ("destroy", destroy_small); ("destroy-ballast", destroy_ballast) ])

(* Randomized differential over the nursery size: it moves every minor
   relative to the pretenured allocations, and so which placed objects
   each minor finds young. *)
let ballast_img = lazy (compile ~heap:8192 destroy_ballast)
let ballast_derived = lazy (derived_policy (Lazy.force ballast_img))

let test_random_nursery =
  let configs = [ "pretenure-all"; "derived" ] in
  QCheck.Test.make ~count:12 ~name:"any nursery size, placement and engine: byte-identical"
    QCheck.(
      triple (int_range 300 2000) (oneofl ~print:Fun.id configs) (bool |> set_print string_of_bool))
    (fun (nursery, cfg, threaded) ->
      let img = Lazy.force ballast_img in
      let policy =
        match cfg with
        | "pretenure-all" -> Policy.uniform Policy.Pretenure (C.sites_for img)
        | _ -> Lazy.force ballast_derived
      in
      verified (fun () ->
          let base = run_with ~nursery ~threaded ~gen:true img in
          let r = run_with ~policy ~nursery ~threaded ~gen:true img in
          base.C.output = r.C.output && base.C.instructions = r.C.instructions))

(* Pretenure-all under the fault layer's allocation storm: a collection
   forced at every 7th allocation, placed ones included, so minors land
   between almost any two pretenured allocations. Both engines storm
   alike: 430 minors and one full collection, the counts recorded when
   the storm sat in the allocation path. *)
let test_pretenure_storm () =
  verified (fun () ->
      let img = Lazy.force ballast_img in
      let base = run_with ~threaded:false ~gen:true img in
      let stormy threaded =
        let st = placed_machine ~nursery:512 img (pretenure_all_codes img) in
        Fault.Faultinject.arm_runtime st (Fault.Faultinject.Alloc_storm { every = 7 });
        if threaded then Vm.Threaded.run st else Vm.Interp.run st;
        st
      in
      let switch = stormy false and threaded = stormy true in
      List.iter
        (fun (engine, st) ->
          let gcs = st.Vm.Interp.gc in
          check Alcotest.string (engine ^ ": output") base.C.output (Vm.Interp.output st);
          check Alcotest.int (engine ^ ": icount") base.C.instructions st.Vm.Interp.icount;
          check Alcotest.int (engine ^ ": collections") 431 gcs.Vm.Interp.collections;
          check Alcotest.int (engine ^ ": minors") 430 gcs.Vm.Interp.minor_collections)
        [ ("switch", switch); ("threaded", threaded) ];
      check Alcotest.bool "final store across engines" true
        (Vm.Mem.equal switch.Vm.Interp.mem threaded.Vm.Interp.mem))

let () =
  Alcotest.run "policy"
    [
      ( "serialization",
        [
          Alcotest.test_case "document and live profile decide alike" `Quick
            (fresh test_document_decides_alike);
          Alcotest.test_case "bad documents" `Quick (fresh test_not_a_profile);
          Alcotest.test_case "O0 profile places the O1 image" `Quick
            (fresh test_o0_profile_places_o1);
        ] );
      ("classifier", [ Alcotest.test_case "thresholds" `Quick (fresh test_classify) ]);
      ( "placement",
        [
          Alcotest.test_case "nursery-capacity boundary" `Quick (fresh test_boundary);
          Alcotest.test_case "pretenured object points at nursery" `Quick
            (fresh test_pretenured_mutation);
          Alcotest.test_case "scanned pretenured object needs its barrier" `Quick
            (fresh test_scanned_pretenured_object);
          Alcotest.test_case "fresh placed object holds a nursery pointer" `Quick
            (fresh test_fresh_placed_cell);
        ] );
      ( "differential",
        [
          Alcotest.test_case "all configs byte-identical" `Slow (fresh test_differential);
          QCheck_alcotest.to_alcotest test_random_nursery;
          Alcotest.test_case "pretenure-all in an allocation storm" `Quick
            (fresh test_pretenure_storm);
        ] );
    ]
