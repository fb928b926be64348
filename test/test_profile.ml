(* Allocation-site profiling tests: both engines and both precise
   collectors attribute identical per-site counts, survival accounting is
   deterministic, the destroy-with-ballast benchmark ranks the long-lived
   ballast site's survival rate above every short-lived tree site, the
   heap census ({!Gc.Census}, an oracle taken by wrapping the installed
   collector entry) agrees with the verifier's independent live-heap parse
   and with the copier's counts, attaching a profiler does not perturb
   execution under any collector and writes the same document on every
   run and engine, and the address-indexed side array matches a
   keyed-table model ([Profile_model]) event by event, reproduces pinned
   profile digests and conserves every allocation as a death or a keyed
   survivor. *)

module T = Telemetry
module C = Driver.Compile

let check = Alcotest.check

let fresh f () =
  T.Metrics.reset ();
  T.Trace.clear ();
  T.Control.enable ();
  Fun.protect ~finally:T.Control.disable f

let destroy_small =
  Programs.Destroy_src.make ~branch:3 ~depth:4 ~replace_depth:2 ~iterations:200

let compile_opts ~optimize ~heap = { C.default_options with optimize; heap_words = heap }

(* Run [img] with a fresh profiler under an explicit engine and collector
   (the incremental collector gets no pause budget, so its pacing is the
   deterministic work quota). With [census_every] = N > 0, the installed
   collector entry is wrapped to take a census whenever a call carries
   the profiler's collection count past a multiple of N; the copying
   collections are the ones the profiler counts. Returns the profiler and
   the censuses, oldest first, each with the count it was taken at. *)
let run_censused ?(census_every = 0) ?nursery_words ~threaded ~collector img =
  let p = C.profile_for img in
  let st = Vm.Interp.create img in
  st.Vm.Interp.prof <- Some p;
  (match collector with
  | C.Precise -> Gc.Cheney.install st
  | C.Generational -> Gc.Nursery.install ?nursery_words st
  | C.Incremental -> ignore (Gc.Incremental.install ~pause_budget_us:0 st)
  | C.Conservative -> ignore (Gc.Incremental.install_conservative st)
  | C.No_gc -> ());
  let censuses = ref [] in
  (match st.Vm.Interp.collector with
  | Some collect when census_every > 0 ->
      st.Vm.Interp.collector <-
        Some
          (fun s ~needed ->
            let before = p.Profile.collections in
            collect s ~needed;
            let n = p.Profile.collections in
            if n / census_every > before / census_every then
              censuses := (n, Gc.Census.take s p) :: !censuses)
  | _ -> ());
  if threaded then Vm.Threaded.run st else Vm.Interp.run st;
  (p, List.rev !censuses)

let run_profiled ?nursery_words ~threaded ~collector img =
  fst (run_censused ?nursery_words ~threaded ~collector img)

let collectors =
  [
    ("precise", C.Precise);
    ("generational", C.Generational);
    ("incremental", C.Incremental);
    ("conservative", C.Conservative);
  ]

(* The full per-site record, as a comparable value. *)
let stats_list (p : Profile.t) =
  Array.to_list
    (Array.map
       (fun (s : Profile.site_stats) ->
         ( s.Profile.st_allocs,
           s.Profile.st_alloc_words,
           s.Profile.st_minor_survivals,
           s.Profile.st_minor_words,
           s.Profile.st_full_survivals,
           s.Profile.st_full_words,
           s.Profile.st_dead_objects,
           s.Profile.st_dead_words ))
       p.Profile.stats)

let rates_of (p : Profile.t) proc =
  Array.to_list p.Profile.sites
  |> List.filter (fun (s : Profile.site) -> s.Profile.s_proc = proc)
  |> List.map (fun (s : Profile.site) ->
         Profile.survival_rate p.Profile.stats.(s.Profile.s_id))

let test_engine_agreement () =
  List.iter
    (fun optimize ->
      let img = C.compile ~options:(compile_opts ~optimize ~heap:1500) destroy_small in
      List.iter
        (fun gen ->
          let label =
            Printf.sprintf "%s/%s"
              (if optimize then "opt" else "unopt")
              (if gen then "gen" else "flat")
          in
          let collector = if gen then C.Generational else C.Precise in
          let a = run_profiled ~threaded:false ~collector img in
          let b = run_profiled ~threaded:true ~collector img in
          check Alcotest.bool (label ^ ": collections happened") true
            (a.Profile.collections >= 1);
          check Alcotest.int
            (label ^ ": engines agree on collections")
            a.Profile.collections b.Profile.collections;
          check Alcotest.bool
            (label ^ ": engines agree on every per-site stat")
            true
            (stats_list a = stats_list b))
        [ false; true ])
    [ false; true ]

let test_survival_deterministic () =
  let img = C.compile ~options:(compile_opts ~optimize:true ~heap:1500) destroy_small in
  let a = run_profiled ~threaded:false ~collector:C.Generational img in
  let b = run_profiled ~threaded:false ~collector:C.Generational img in
  check Alcotest.bool "minor collections happened" true (a.Profile.minor_collections >= 1);
  check Alcotest.int "repeat run: same collection count" a.Profile.collections
    b.Profile.collections;
  check Alcotest.bool "repeat run: identical survival attribution" true
    (stats_list a = stats_list b)

(* The acceptance experiment: destroy with a long-lived ballast list — the
   ballast site's survival rate must rank above every short-lived tree
   site. Flat mode, so every collection copies every survivor. *)
let test_ballast_ordering () =
  let src =
    Programs.Destroy_src.make_ballast ~ballast:400 ~branch:3 ~depth:5 ~replace_depth:2
      ~iterations:40
  in
  let img = C.compile ~options:(compile_opts ~optimize:true ~heap:6000) src in
  let p = run_profiled ~threaded:false ~collector:C.Precise img in
  check Alcotest.bool "collections happened" true (p.Profile.collections >= 1);
  let ballast_rate =
    match rates_of p "MkBallast" with
    | [ r ] -> r
    | rs -> Alcotest.fail (Printf.sprintf "want 1 MkBallast site, got %d" (List.length rs))
  in
  let tree_rates = rates_of p "MkTree" in
  check Alcotest.bool "tree sites exist" true (tree_rates <> []);
  check Alcotest.bool "ballast survives nearly everything" true (ballast_rate > 0.9);
  List.iter
    (fun r ->
      check Alcotest.bool "ballast site outranks every tree site" true (ballast_rate > r))
    tree_rates

let census_checks ~heap ~iterations =
  let src = Programs.Destroy_src.make ~branch:3 ~depth:4 ~replace_depth:2 ~iterations in
  let img = C.compile ~options:(compile_opts ~optimize:true ~heap) src in
  Gc.Verify.set_post true;
  let p, censuses =
    Fun.protect
      ~finally:(fun () -> Gc.Verify.set_post false)
      (fun () -> run_censused ~census_every:1 ~threaded:false ~collector:C.Precise img)
  in
  if p.Profile.collections = 0 then Alcotest.fail "no collections, census never taken";
  let collection, c =
    match List.rev censuses with
    | c :: _ -> c
    | [] -> Alcotest.fail "census due every collection but none taken"
  in
  (* Internal consistency: both breakdowns tile the censused heap. *)
  let total sel entries = List.fold_left (fun acc (_, o, w) -> acc + sel (o, w)) 0 entries in
  check Alcotest.int "by_tdesc objects tile the census" c.Gc.Census.objects
    (total fst c.Gc.Census.by_tdesc);
  check Alcotest.int "by_tdesc words tile the census" c.Gc.Census.words
    (total snd c.Gc.Census.by_tdesc);
  check Alcotest.int "by_site objects tile the census" c.Gc.Census.objects
    (total fst c.Gc.Census.by_site);
  check Alcotest.int "by_site words tile the census" c.Gc.Census.words
    (total snd c.Gc.Census.by_site);
  (* Cross-check against the verifier, which parsed the same post-collection
     heap through entirely separate code. *)
  match Gc.Verify.last_report () with
  | None -> Alcotest.fail "verifier enabled but no report"
  | Some r ->
      check Alcotest.int "census taken at the verified collection" r.Gc.Verify.collection
        collection;
      check Alcotest.int "census live objects equal the verifier's live-heap parse"
        r.Gc.Verify.objects c.Gc.Census.objects

let test_census_matches_verifier () = census_checks ~heap:1500 ~iterations:200

let qcheck_census =
  QCheck.Test.make ~name:"census agrees with the verifier across heap shapes" ~count:8
    QCheck.(pair (int_range 1500 2400) (int_range 60 200))
    (fun (heap, iterations) ->
      (fresh (fun () -> census_checks ~heap ~iterations)) ();
      true)

(* The copier counts the objects it evacuates and adds the count once per
   collection. After every collection that ends with a full one, the
   count it reported — the [gc.objects_copied] sample and the increment
   of the machine's [objects_copied] — must equal the objects an
   independent linear parse of the survivors finds. The attached profiler
   sees every evacuation through [Profile.on_copy], so its per-site
   survival counts must add up to the same totals. *)
let test_copy_counts_match_census () =
  List.iter
    (fun gen ->
      let mode = if gen then "gen" else "flat" in
      let img = C.compile ~options:(compile_opts ~optimize:true ~heap:1500) destroy_small in
      let p = C.profile_for img in
      let st = Vm.Interp.create img in
      st.Vm.Interp.prof <- Some p;
      if gen then Gc.Nursery.install st else Gc.Cheney.install st;
      let collect = Option.get st.Vm.Interp.collector in
      let samples name = T.Metrics.samples (Option.get (T.Metrics.find_histogram name)) in
      let fulls = ref 0 and full_objects = ref 0 and minor_objects = ref 0 in
      st.Vm.Interp.collector <-
        Some
          (fun s ~needed ->
            let objects0 = s.Vm.Interp.gc.Vm.Interp.objects_copied in
            let n0 = Array.length (samples "gc.objects_copied") in
            collect s ~needed;
            let objects = samples "gc.objects_copied" and minor = samples "gc.is_minor" in
            let n = Array.length objects in
            let added = ref 0 in
            for i = n0 to n - 1 do
              let k = int_of_float objects.(i) in
              added := !added + k;
              if minor.(i) = 1.0 then minor_objects := !minor_objects + k
              else full_objects := !full_objects + k
            done;
            check Alcotest.int (mode ^ ": samples add up to the counter's increment")
              (s.Vm.Interp.gc.Vm.Interp.objects_copied - objects0) !added;
            if n > n0 && minor.(n - 1) = 0.0 then begin
              incr fulls;
              check Alcotest.int (mode ^ ": objects copied by the full collection = census")
                (Gc.Census.take s p).Gc.Census.objects (int_of_float objects.(n - 1))
            end);
      Vm.Interp.run st;
      check Alcotest.bool (mode ^ ": full collections happened") true (!fulls > 0);
      let total f = Array.fold_left (fun acc st -> acc + f st) 0 p.Profile.stats in
      check Alcotest.int (mode ^ ": full survivals seen by on_copy") !full_objects
        (total (fun st -> st.Profile.st_full_survivals));
      check Alcotest.int (mode ^ ": minor survivals seen by on_copy") !minor_objects
        (total (fun st -> st.Profile.st_minor_survivals)))
    [ false; true ]

(* Attaching a profiler changes nothing the program or the collector
   does, under every collector: the non-moving ones reach the profiler
   only through [on_alloc], whose stale-occupant credit is the path their
   address reuse takes. The document it writes is a function of the run
   alone. *)
let test_profiler_transparent () =
  let img = C.compile ~options:(compile_opts ~optimize:true ~heap:1500) destroy_small in
  List.iter
    (fun (name, collector) ->
      let bare = C.run ~collector ~threaded:false img in
      let p = C.profile_for img in
      let profiled = C.run ~collector ~threaded:true ~profile:p img in
      let label what = name ^ ": " ^ what in
      check Alcotest.string (label "output identical") bare.C.output profiled.C.output;
      check Alcotest.int (label "instruction count identical") bare.C.instructions
        profiled.C.instructions;
      check Alcotest.int (label "allocation count identical") bare.C.allocations
        profiled.C.allocations;
      check Alcotest.int (label "collection count identical") bare.C.collections
        profiled.C.collections;
      (* The profiler's totals are exactly the machine's own counters. *)
      let total f = Array.fold_left (fun acc s -> acc + f s) 0 p.Profile.stats in
      check Alcotest.int (label "per-site allocs sum to the machine total")
        profiled.C.allocations
        (total (fun s -> s.Profile.st_allocs));
      check Alcotest.int (label "per-site words sum to the machine total")
        profiled.C.alloc_words
        (total (fun s -> s.Profile.st_alloc_words));
      (* The document holds counts only: a second run on the other engine,
         with telemetry off, records no spans and writes the same bytes. *)
      let text = T.Json.to_string (Profile.to_json p) in
      let p' = C.profile_for img in
      T.Trace.clear ();
      T.Control.disable ();
      Fun.protect ~finally:T.Control.enable (fun () ->
          ignore (C.run ~collector ~threaded:false ~profile:p' img));
      check Alcotest.int (label "no spans recorded with telemetry off") 0
        (List.length (T.Trace.recorded ()));
      check Alcotest.string (label "same document on either engine, telemetry on or off") text
        (T.Json.to_string (Profile.to_json p'));
      (* And the emitted document is well-formed JSON carrying every site. *)
      let doc = T.Json.parse text in
      check Alcotest.bool (label "schema present") true
        (T.Json.member "schema" doc = Some (T.Json.Str "mm-profile"));
      match Option.bind (T.Json.member "sites" doc) T.Json.to_list with
      | Some sites ->
          check Alcotest.int (label "one JSON entry per static site")
            (Array.length p.Profile.sites) (List.length sites)
      | None -> Alcotest.fail (label "no sites array in emitted profile"))
    collectors

(* --- the side array against its reference ----------------------------- *)

(* The gen-pgo benchmark's training program (seed literal unsubstituted)
   and the small destroy, each with its heap and nursery. *)
let digest_programs =
  [
    ( "gen-pgo",
      Programs.Destroy_src.make_ballast ~ballast:15_000 ~branch:4 ~depth:5 ~replace_depth:2
        ~iterations:400,
      100_000,
      Some 4000 );
    ("destroy", destroy_small, 1500, None);
  ]

(* Every program under every collector, censuses every 3 collections: the
   profiles the digest and conservation checks read. *)
let digest_runs =
  lazy
    (List.concat_map
       (fun (prog, src, heap, nursery_words) ->
         let img = C.compile ~options:(compile_opts ~optimize:true ~heap) src in
         List.map
           (fun (name, collector) ->
             ( prog ^ "/" ^ name,
               run_censused ~census_every:3 ?nursery_words ~threaded:false ~collector img ))
           collectors)
       digest_programs)

(* A census rendered as the profile document's old [censuses] entries
   were, so the digests below still cover the census tallies. *)
let census_json (collection, (c : Gc.Census.t)) : T.Json.t =
  let breakdown key entries =
    T.Json.List
      (List.map
         (fun (id, objects, words) ->
           T.Json.Obj [ (key, T.Json.Int id); ("objects", T.Json.Int objects); ("words", T.Json.Int words) ])
         entries)
  in
  T.Json.Obj
    [
      ("collection", T.Json.Int collection);
      ("live_objects", T.Json.Int c.Gc.Census.objects);
      ("live_words", T.Json.Int c.Gc.Census.words);
      ("by_tdesc", breakdown "tdesc" c.Gc.Census.by_tdesc);
      ("by_site", breakdown "site" c.Gc.Census.by_site);
    ]

(* The profile document followed by the censuses, plus the placement
   decisions derived from it. *)
let profile_digest (p, censuses) =
  let doc =
    match Profile.to_json p with
    | T.Json.Obj kvs -> T.Json.Obj (kvs @ [ ("censuses", T.Json.List (List.map census_json censuses)) ])
    | j -> j
  in
  let codes = fst (Policy.decisions_for (Policy.derive_from_stats p) p.Profile.sites) in
  Digest.to_hex
    (Digest.string
       (T.Json.to_string doc ^ "\n"
       ^ String.concat "," (Array.to_list (Array.map string_of_int codes))))

(* Recorded from the hash-table profiler the side array replaced: sites,
   collection counts, censuses and derived decisions are unchanged. The
   two gen-pgo digests under the copying collectors were re-recorded when
   pooled placement went: a site that pooled (code 2) now pretenures
   (code 1), and with those codes mapped back the old digests are
   reproduced. destroy/conservative was re-recorded when the
   conservative baseline took the incremental collector's sweep (free
   list most-recently-swept first, frontier retreat), which moves where
   it allocates and so what its ambiguous words pin. *)
let pinned_digests =
  [
    ("gen-pgo/precise", "f9c5808e602277fd59e350794c9f6e27");
    ("gen-pgo/generational", "953a87e2f3d9924df3d5410bd6a69227");
    ("gen-pgo/incremental", "e6bf80716a0ebc2f832b67754d8fe508");
    ("gen-pgo/conservative", "facc8bc60a51df7cb13533399b831c8e");
    ("destroy/precise", "372d5189ed112cd8ab3cded09829f2e7");
    ("destroy/generational", "bde9cb53b54e012eb7aa0cf5a7a677fb");
    ("destroy/incremental", "23ca6afa8f70a7eb63c39f29ca7f0b2f");
    ("destroy/conservative", "6525080c9d4032e5eb47b03efab5adc9");
  ]

let test_pinned_digests () =
  List.iter
    (fun (config, run) ->
      check Alcotest.string (config ^ ": profile digest") (List.assoc config pinned_digests)
        (profile_digest run))
    (Lazy.force digest_runs)

(* An object dies at most once and is otherwise still keyed, so per site
   the allocations split exactly into deaths and keyed survivors. *)
let test_conservation () =
  List.iter
    (fun (config, (p, _)) ->
      let keyed = Profile.keyed_objects p in
      Array.iteri
        (fun i (st : Profile.site_stats) ->
          check Alcotest.int
            (Printf.sprintf "%s: site %d: allocs = dead + keyed" config i)
            st.Profile.st_allocs
            (st.Profile.st_dead_objects + keyed.(i)))
        p.Profile.stats)
    (Lazy.force digest_runs)

type event =
  | Alloc of { site : int; addr : int; words : int }
  | Copy of { src : int; dst : int; words : int }
  | Begin of bool (* minor? *)
  | End of { lo : int; hi : int }

let event_to_string = function
  | Alloc { site; addr; words } -> Printf.sprintf "alloc(site %d @%d %dw)" site addr words
  | Copy { src; dst; words } -> Printf.sprintf "copy(%d -> %d %dw)" src dst words
  | Begin minor -> if minor then "begin minor" else "begin full"
  | End { lo; hi } -> Printf.sprintf "end [%d,%d)" lo hi

(* Addresses range over a small side array's whole extent, so
   allocations land both fresh and on keyed addresses, and copies read
   keyed and unkeyed sources. *)
let model_nsites = 4
let model_span = 64

let gen_event =
  let open QCheck.Gen in
  let addr = int_bound (model_span - 1) and words = int_range 1 40 in
  frequency
    [
      ( 4,
        map3
          (fun site addr words -> Alloc { site; addr; words })
          (int_range (-1) (model_nsites - 1))
          addr words );
      (3, map3 (fun src dst words -> Copy { src; dst; words }) addr addr words);
      (1, map (fun minor -> Begin minor) bool);
      (1, map2 (fun lo len -> End { lo; hi = lo + len }) addr (int_bound (model_span / 2)));
    ]

let qcheck_model =
  QCheck.Test.make ~name:"side array agrees with the keyed-table model" ~count:300
    QCheck.(
      make ~print:(Print.list event_to_string) Gen.(list_size (int_range 1 200) gen_event))
    (fun events ->
      let sites =
        Array.init model_nsites (fun i ->
            {
              Profile.s_id = i;
              s_proc = "P";
              s_line = i + 1;
              s_col = 1;
              s_tdesc = 0;
              s_open = false;
            })
      in
      let p = Profile.create ~words:model_span sites in
      let m = Profile_model.create model_nsites in
      List.iter
        (fun ev ->
          (match ev with
          | Alloc { site; addr; words } ->
              Profile.on_alloc p ~site ~addr ~words;
              Profile_model.on_alloc m ~site ~addr ~words
          | Copy { src; dst; words } ->
              Profile.on_copy p ~src ~dst ~words;
              Profile_model.on_copy m ~src ~dst ~words
          | Begin minor ->
              Profile.begin_collection p ~minor;
              Profile_model.begin_collection m ~minor
          | End { lo; hi } ->
              Profile.end_collection p ~src_lo:lo ~src_hi:hi;
              Profile_model.end_collection m ~src_lo:lo ~src_hi:hi);
          let fail what = QCheck.Test.fail_reportf "after %s: %s" (event_to_string ev) what in
          if p.Profile.stats <> m.Profile_model.stats then fail "per-site stats differ";
          if Profile.keyed_objects p <> Profile_model.keyed_objects m then
            fail "keyed objects differ";
          if
            p.Profile.collections <> m.Profile_model.collections
            || p.Profile.minor_collections <> m.Profile_model.minor_collections
          then fail "collection counts differ";
          for a = 0 to model_span + 1 do
            if Profile.site_of_addr p a <> Profile_model.site_of_addr m a then
              fail (Printf.sprintf "site_of_addr %d differs" a)
          done)
        events;
      true)

let () =
  Alcotest.run "profile"
    [
      ( "attribution",
        [
          Alcotest.test_case "engine and collector agreement" `Quick
            (fresh test_engine_agreement);
          Alcotest.test_case "survival is deterministic" `Quick
            (fresh test_survival_deterministic);
          Alcotest.test_case "ballast outlives cons sites" `Quick
            (fresh test_ballast_ordering);
        ] );
      ( "census",
        [
          Alcotest.test_case "census matches verifier" `Quick
            (fresh test_census_matches_verifier);
          QCheck_alcotest.to_alcotest qcheck_census;
          Alcotest.test_case "objects copied match the census" `Quick
            (fresh test_copy_counts_match_census);
        ] );
      ( "transparency",
        [
          Alcotest.test_case "profiler does not perturb the run" `Quick
            (fresh test_profiler_transparent);
        ] );
      ( "side array",
        [
          QCheck_alcotest.to_alcotest qcheck_model;
          Alcotest.test_case "pinned profile digests" `Quick (fresh test_pinned_digests);
          Alcotest.test_case "conservation under every collector" `Quick
            (fresh test_conservation);
        ] );
    ]
