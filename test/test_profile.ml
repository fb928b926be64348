(* Allocation-site profiling tests: both engines and both precise
   collectors attribute identical per-site counts, survival accounting is
   deterministic, the destroy-with-ballast benchmark ranks the long-lived
   ballast site's survival rate above every short-lived tree site, the
   heap census agrees with the verifier's independent live-heap parse, and
   attaching a profiler does not perturb execution. *)

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
   (bypassing the driver's MM_GEN / MM_THREADED environment switches so the
   matrix below is exactly what it says); returns the profiler. *)
let run_profiled ?(census_every = 0) ~threaded ~gen img =
  let p = C.profile_for img in
  Profile.set_census_every p census_every;
  let was = Vm.Threaded.enabled () in
  Fun.protect
    ~finally:(fun () -> Vm.Threaded.set_enabled was)
    (fun () ->
      Vm.Threaded.set_enabled threaded;
      let st = Vm.Interp.create img in
      st.Vm.Interp.prof <- Some p;
      if gen then Gc.Nursery.install st else Gc.Cheney.install st;
      if threaded then Vm.Threaded.run st else Vm.Interp.run st);
  p

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
          let a = run_profiled ~threaded:false ~gen img in
          let b = run_profiled ~threaded:true ~gen img in
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
  let a = run_profiled ~threaded:false ~gen:true img in
  let b = run_profiled ~threaded:false ~gen:true img in
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
  let p = run_profiled ~threaded:false ~gen:false img in
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
  let was = Gc.Verify.post_enabled () in
  Gc.Verify.set_post true;
  let p =
    Fun.protect
      ~finally:(fun () -> Gc.Verify.set_post was)
      (fun () -> run_profiled ~census_every:1 ~threaded:false ~gen:false img)
  in
  if p.Profile.collections = 0 then Alcotest.fail "no collections, census never taken";
  let c =
    match p.Profile.censuses with
    | c :: _ -> c
    | [] -> Alcotest.fail "census due every collection but none recorded"
  in
  (* Internal consistency: both breakdowns tile the censused heap. *)
  let total sel entries = List.fold_left (fun acc (_, o, w) -> acc + sel (o, w)) 0 entries in
  check Alcotest.int "by_tdesc objects tile the census" c.Profile.c_objects
    (total fst c.Profile.c_by_tdesc);
  check Alcotest.int "by_tdesc words tile the census" c.Profile.c_words
    (total snd c.Profile.c_by_tdesc);
  check Alcotest.int "by_site objects tile the census" c.Profile.c_objects
    (total fst c.Profile.c_by_site);
  check Alcotest.int "by_site words tile the census" c.Profile.c_words
    (total snd c.Profile.c_by_site);
  (* Cross-check against the verifier, which parsed the same post-collection
     heap through entirely separate code. *)
  match Gc.Verify.last_report () with
  | None -> Alcotest.fail "verifier enabled but no report"
  | Some r ->
      check Alcotest.int "census taken at the verified collection"
        r.Gc.Verify.collection c.Profile.c_collection;
      check Alcotest.int "census live objects equal the verifier's live-heap parse"
        r.Gc.Verify.objects c.Profile.c_objects

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
              Gc.Census.take s p;
              let c = List.hd p.Profile.censuses in
              check Alcotest.int (mode ^ ": objects copied by the full collection = census")
                c.Profile.c_objects (int_of_float objects.(n - 1))
            end);
      Vm.Interp.run st;
      check Alcotest.bool (mode ^ ": full collections happened") true (!fulls > 0);
      let total f = Array.fold_left (fun acc st -> acc + f st) 0 p.Profile.stats in
      check Alcotest.int (mode ^ ": full survivals seen by on_copy") !full_objects
        (total (fun st -> st.Profile.st_full_survivals));
      check Alcotest.int (mode ^ ": minor survivals seen by on_copy") !minor_objects
        (total (fun st -> st.Profile.st_minor_survivals)))
    [ false; true ]

let test_profiler_transparent () =
  let img = C.compile ~options:(compile_opts ~optimize:true ~heap:1500) destroy_small in
  let bare = C.run img in
  let p = C.profile_for img in
  let profiled = C.run ~profile:p img in
  check Alcotest.string "output identical" bare.C.output profiled.C.output;
  check Alcotest.int "instruction count identical" bare.C.instructions
    profiled.C.instructions;
  check Alcotest.int "allocation count identical" bare.C.allocations profiled.C.allocations;
  check Alcotest.int "collection count identical" bare.C.collections profiled.C.collections;
  (* The profiler's totals are exactly the machine's own counters. *)
  let total f = Array.fold_left (fun acc s -> acc + f s) 0 p.Profile.stats in
  check Alcotest.int "per-site allocs sum to the machine total" profiled.C.allocations
    (total (fun s -> s.Profile.st_allocs));
  check Alcotest.int "per-site words sum to the machine total" profiled.C.alloc_words
    (total (fun s -> s.Profile.st_alloc_words));
  (* And the emitted document is well-formed JSON carrying every site. *)
  let doc = T.Json.parse (T.Json.to_string (Profile.to_json p)) in
  check Alcotest.bool "schema present" true
    (T.Json.member "schema" doc = Some (T.Json.Str "mm-profile"));
  match Option.bind (T.Json.member "sites" doc) T.Json.to_list with
  | Some sites ->
      check Alcotest.int "one JSON entry per static site"
        (Array.length p.Profile.sites) (List.length sites)
  | None -> Alcotest.fail "no sites array in emitted profile"

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
    ]
