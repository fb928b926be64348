(* The memoized pc→table decode cache must be observationally identical to
   the paper-faithful stream re-scan ({!Gcmaps.Decode.find}): same decoded
   procedure metadata, same gc-point, same Table_corrupt behaviour — across
   both table schemes and both packings, for any lookup order. *)

module L = Gcmaps.Loc
module RM = Gcmaps.Rawmaps
module E = Gcmaps.Encode
module D = Gcmaps.Decode
module DC = Gcmaps.Decode_cache

let check = Alcotest.check

(* Both schemes × both packings (previous on/off rides along via the
   shared config list). *)
let configs = Gcmaps.Table_stats.configs

(* ------------------------------------------------------------------ *)
(* Random raw-map programs (generators in the style of test_tables)     *)
(* ------------------------------------------------------------------ *)

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

let gen_proc fid =
  QCheck.Gen.(
    map3
      (fun gps gaps (frame, nargs) ->
        (* Offsets ascend by random gaps; a zero gap yields duplicate
           offsets, exercising the cache's first-match tie-break. *)
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
          RM.pm_fid = fid;
          pm_name = Printf.sprintf "p%d" fid;
          pm_frame_size = frame;
          pm_nargs = nargs;
          pm_saves = [ (6, -1); (7, -2) ];
          pm_code_bytes = !off + 20;
          pm_gcpoints = gps;
        })
      (list_size (int_range 1 8) gen_gcpoint)
      (list_repeat 8 (int_range 0 9))
      (pair (int_range 0 40) (int_range 0 6)))

let gen_program =
  QCheck.Gen.(
    (int_range 1 5 >>= fun n ->
     let rec go i acc =
       if i >= n then return (Array.of_list (List.rev acc))
       else gen_proc i >>= fun p -> go (i + 1) (p :: acc)
     in
     go 0 [])
    >>= fun procs ->
    (* Arbitrary (ascending) code starts, as the image builder would lay
       the procedures out. *)
    let starts = Array.make (Array.length procs) 0 in
    let pos = ref 0 in
    Array.iteri
      (fun i p ->
        starts.(i) <- !pos;
        pos := !pos + p.RM.pm_code_bytes)
      procs;
    return (procs, starts))

(* Deterministic shuffle so failures reproduce from the qcheck seed. *)
let shuffle rand arr =
  let a = Array.copy arr in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rand (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let same_result (dp1, gp1) (dp2, gp2) =
  dp1.D.dp_frame_size = dp2.D.dp_frame_size
  && dp1.D.dp_nargs = dp2.D.dp_nargs
  && dp1.D.dp_saves = dp2.D.dp_saves
  && dp1.D.dp_ground = dp2.D.dp_ground
  && gp1 = gp2

(* Every gc-point of every procedure, visited in random order, twice (the
   second pass hits the warm cache): the cached result must equal a fresh
   uncached decode. Non-gc-point offsets must raise Table_corrupt both
   ways. *)
let prop_cache_equivalent =
  QCheck.Test.make ~name:"cached find = uncached find, all configs" ~count:60
    (QCheck.make gen_program) (fun (procs, starts) ->
      let rand = Random.State.make [| 0x5eed; Array.length procs |] in
      List.for_all
        (fun (_, scheme, opts) ->
          let tables = E.encode_program scheme opts procs starts in
          let cache = DC.create tables in
          let points =
            Array.of_list
              (Array.to_list procs
              |> List.concat_map (fun p ->
                     List.map
                       (fun g -> (p.RM.pm_fid, starts.(p.RM.pm_fid) + g.RM.gp_offset))
                       p.RM.pm_gcpoints))
          in
          let order = shuffle rand points in
          let ok_points =
            Array.for_all
              (fun (fid, code_offset) ->
                let fresh = D.find tables ~fid ~code_offset in
                same_result fresh (DC.find cache ~fid ~code_offset)
                && same_result fresh (DC.find cache ~fid ~code_offset))
              order
          in
          (* An offset past every gc-point of proc 0 is never mapped. *)
          let bogus = starts.(0) + procs.(0).RM.pm_code_bytes + 1 in
          let nf f =
            match f () with exception D.Table_corrupt _ -> true | _ -> false
          in
          ok_points
          && nf (fun () -> D.find tables ~fid:0 ~code_offset:bogus)
          && nf (fun () -> DC.find cache ~fid:0 ~code_offset:bogus))
        configs)

(* ------------------------------------------------------------------ *)
(* The runtime switch                                                  *)
(* ------------------------------------------------------------------ *)

let with_cache_enabled enabled f =
  let was = DC.enabled () in
  DC.set_enabled enabled;
  Fun.protect ~finally:(fun () -> DC.set_enabled was) f

let test_disabled_defers () =
  (* With the switch off, DC.find must behave exactly like Decode.find —
     including identical Table_corrupt on unmapped offsets — without
     materializing anything. *)
  let procs, starts =
    QCheck.Gen.generate1 ~rand:(Random.State.make [| 42 |]) gen_program
  in
  let _, scheme, opts = List.hd configs in
  let tables = E.encode_program scheme opts procs starts in
  let cache = DC.create tables in
  with_cache_enabled false (fun () ->
      Array.iteri
        (fun fid p ->
          List.iter
            (fun g ->
              let code_offset = starts.(fid) + g.RM.gp_offset in
              check Alcotest.bool "same result" true
                (same_result
                   (D.find tables ~fid ~code_offset)
                   (DC.find cache ~fid ~code_offset)))
            p.RM.pm_gcpoints)
        procs;
      check Alcotest.int "nothing materialized" 0 (DC.resident_procs cache))

(* ------------------------------------------------------------------ *)
(* End to end: a gc-heavy run is bit-identical with the cache on or off *)
(* ------------------------------------------------------------------ *)

let test_end_to_end_identical () =
  let src = Programs.Destroy_src.make ~branch:3 ~depth:4 ~replace_depth:2 ~iterations:120 in
  let options =
    { Driver.Compile.default_options with optimize = true; heap_words = 1500 }
  in
  let run enabled =
    with_cache_enabled enabled (fun () ->
        Driver.Compile.run_source ~options ~collector:Driver.Compile.Precise ~threaded:true src)
  in
  let on = run true in
  let off = run false in
  check Alcotest.string "output" off.Driver.Compile.output on.Driver.Compile.output;
  check Alcotest.int "collections" off.Driver.Compile.collections
    on.Driver.Compile.collections;
  check Alcotest.int "words copied" off.Driver.Compile.gc.Vm.Interp.words_copied
    on.Driver.Compile.gc.Vm.Interp.words_copied;
  check Alcotest.int "frames traced" off.Driver.Compile.gc.Vm.Interp.frames_traced
    on.Driver.Compile.gc.Vm.Interp.frames_traced;
  check Alcotest.bool "collections happened" true (on.Driver.Compile.collections > 0)

let () =
  Alcotest.run "decode_cache"
    [
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest prop_cache_equivalent;
          Alcotest.test_case "disabled defers to Decode.find" `Quick test_disabled_defers;
        ] );
      ( "end-to-end",
        [ Alcotest.test_case "destroy: cache on = cache off" `Quick test_end_to_end_identical ] );
    ]
