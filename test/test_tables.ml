(* GC table construction, encoding and decoding (the paper's §5). *)

module L = Gcmaps.Loc
module RM = Gcmaps.Rawmaps
module E = Gcmaps.Encode
module D = Gcmaps.Decode

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Loc encoding (Fig. 4)                                               *)
(* ------------------------------------------------------------------ *)

let test_loc_roundtrip () =
  List.iter
    (fun l -> check Alcotest.bool (L.to_string l) true (L.equal l (L.of_int (L.to_int l))))
    [
      L.Lreg 0;
      L.Lreg 11;
      L.Lmem (L.FP, 0);
      L.Lmem (L.FP, -30);
      L.Lmem (L.SP, 4);
      L.Lmem (L.AP, 2);
      L.Lmem (L.FP, 1000);
      L.Lmem (L.AP, -1);
    ]

let test_loc_one_byte () =
  (* Fig. 4's point: typical frame offsets fit one packed byte. Offsets in
     [-16, 15] with a 2-bit base tag make a 7-bit payload. *)
  for off = -16 to 15 do
    let v = L.to_int (L.Lmem (L.FP, off)) in
    check Alcotest.int (Printf.sprintf "off %d" off) 1 (Support.Varint.byte_length v)
  done

(* ------------------------------------------------------------------ *)
(* Raw map fixtures                                                    *)
(* ------------------------------------------------------------------ *)

let gcp ?(stack = []) ?(regs = []) ?(derivs = []) ?(variants = []) ~index ~offset () : RM.gcpoint
    =
  {
    RM.gp_index = index;
    gp_offset = offset;
    stack_ptrs = stack;
    reg_ptrs = regs;
    derivs;
    variants;
  }

let proc ?(frame = 10) ?(nargs = 2) ?(saves = [ (6, -1) ]) ?(code = 200) gcpoints : RM.proc_maps
    =
  {
    RM.pm_fid = 0;
    pm_name = "p";
    pm_frame_size = frame;
    pm_nargs = nargs;
    pm_saves = saves;
    pm_code_bytes = code;
    pm_gcpoints = gcpoints;
  }

let d1 = { RM.target = L.Lreg 3; plus = [ L.Lmem (L.FP, -2) ]; minus = [] }
let d2 =
  {
    RM.target = L.Lmem (L.FP, -5);
    plus = [ L.Lreg 7; L.Lreg 8 ];
    minus = [ L.Lmem (L.AP, 1) ];
  }

let sample_proc =
  proc
    [
      gcp ~index:3 ~offset:10
        ~stack:[ L.Lmem (L.FP, -1); L.Lmem (L.FP, -3) ]
        ~regs:[ 2; 7 ] ~derivs:[ d1 ] ();
      gcp ~index:9 ~offset:40
        ~stack:[ L.Lmem (L.FP, -1); L.Lmem (L.FP, -3) ]
        ~regs:[ 2; 7 ] ();
      gcp ~index:15 ~offset:77 ~stack:[ L.Lmem (L.FP, -3) ] ~derivs:[ d1; d2 ] ();
      gcp ~index:20 ~offset:99 ();
    ]

(* Decoding loses gp_index, and the δ-main scheme returns stack pointers in
   ground-table order; normalize both sides for comparison. *)
let strip (g : RM.gcpoint) =
  { g with RM.gp_index = -1; stack_ptrs = List.sort L.compare g.RM.stack_ptrs }

let roundtrip_config scheme opts pm =
  let ep = E.encode_proc scheme opts pm in
  let dp, gps = D.decode_proc scheme opts ep in
  check Alcotest.int "frame size" pm.RM.pm_frame_size dp.D.dp_frame_size;
  check Alcotest.int "nargs" pm.RM.pm_nargs dp.D.dp_nargs;
  check Alcotest.bool "saves" true (dp.D.dp_saves = pm.RM.pm_saves);
  check Alcotest.int "n gcpoints" (List.length pm.RM.pm_gcpoints) (List.length gps);
  List.iter2
    (fun orig got ->
      check Alcotest.bool
        (Printf.sprintf "gcpoint@%d" orig.RM.gp_offset)
        true
        (strip orig = strip got))
    pm.RM.pm_gcpoints gps

let test_roundtrip_all_configs () =
  List.iter
    (fun (_, scheme, opts) -> roundtrip_config scheme opts sample_proc)
    Gcmaps.Table_stats.configs

let test_find_by_offset () =
  let tables = E.encode_program E.Delta_main { E.packing = true; previous = true }
      [| sample_proc |] [| 0 |] in
  let _, gp = D.find tables ~fid:0 ~code_offset:77 in
  check Alcotest.int "offset" 77 gp.RM.gp_offset;
  check Alcotest.int "derivs" 2 (List.length gp.RM.derivs);
  (match D.find tables ~fid:0 ~code_offset:78 with
  | exception D.Table_corrupt { fid = 0; offset = 78; _ } -> ()
  | exception D.Table_corrupt _ -> Alcotest.fail "miss must carry fid/offset context"
  | _ -> Alcotest.fail "non-gc-point offset must not resolve")

let test_previous_compression_smaller () =
  (* sample_proc has two identical adjacent tables; Previous must shrink the
     encoding. *)
  let sz opts = Bytes.length (E.encode_proc E.Delta_main opts sample_proc).E.ep_stream in
  let plain = sz { E.packing = true; previous = false } in
  let prev = sz { E.packing = true; previous = true } in
  check Alcotest.bool "previous smaller" true (prev < plain)

let test_packing_much_smaller () =
  let sz opts = Bytes.length (E.encode_proc E.Delta_main opts sample_proc).E.ep_stream in
  let words = sz { E.packing = false; previous = false } in
  let packed = sz { E.packing = true; previous = false } in
  check Alcotest.bool "packed < half of words" true (packed * 2 < words)

let test_order_derivs () =
  (* b derived from a's target: b must come first. *)
  let a = { RM.target = L.Lreg 2; plus = [ L.Lmem (L.FP, -1) ]; minus = [] } in
  let b = { RM.target = L.Lreg 3; plus = [ L.Lreg 2 ]; minus = [] } in
  let sorted = RM.order_derivs [ a; b ] in
  (match sorted with
  | [ x; y ] ->
      check Alcotest.bool "b before a" true (x.RM.target = L.Lreg 3 && y.RM.target = L.Lreg 2)
  | _ -> Alcotest.fail "length");
  (* Same answer regardless of input order. *)
  let sorted2 = RM.order_derivs [ b; a ] in
  check Alcotest.bool "stable" true (sorted = sorted2)

let test_variants_roundtrip () =
  let v =
    {
      RM.path_loc = L.Lmem (L.FP, -4);
      cases = [ (1, d1); (2, { d1 with RM.target = L.Lreg 4 }) ];
    }
  in
  let pm = proc [ gcp ~index:1 ~offset:5 ~variants:[ v ] () ] in
  List.iter
    (fun (_, scheme, opts) ->
      let ep = E.encode_proc scheme opts pm in
      let _, gps = D.decode_proc scheme opts ep in
      match gps with
      | [ g ] -> check Alcotest.bool "variant" true (g.RM.variants = [ v ])
      | _ -> Alcotest.fail "count")
    Gcmaps.Table_stats.configs

(* ------------------------------------------------------------------ *)
(* Property: random raw maps round-trip under every configuration      *)
(* ------------------------------------------------------------------ *)

let gen_loc =
  QCheck.Gen.(
    oneof
      [
        map (fun r -> L.Lreg r) (int_range 0 11);
        map2
          (fun b o ->
            L.Lmem ((match b with 0 -> L.FP | 1 -> L.SP | _ -> L.AP), o))
          (int_range 0 2) (int_range (-200) 200);
      ])

let gen_deriv =
  QCheck.Gen.(
    map3
      (fun t p m -> { RM.target = t; plus = p; minus = m })
      gen_loc
      (list_size (int_range 0 3) gen_loc)
      (list_size (int_range 0 2) gen_loc))

let gen_gcpoint =
  QCheck.Gen.(
    map
      (fun (stack, regs, derivs) ->
        gcp ~index:0 ~offset:0
          ~stack:(List.sort_uniq L.compare stack)
          ~regs:(List.sort_uniq compare regs)
          ~derivs ())
      (triple
         (list_size (int_range 0 6) gen_loc)
         (list_size (int_range 0 4) (int_range 0 11))
         (list_size (int_range 0 3) gen_deriv)))

let gen_proc =
  QCheck.Gen.(
    map2
      (fun gps (frame, nargs) ->
        let gps =
          List.mapi (fun i g -> { g with RM.gp_offset = (i + 1) * 7; gp_index = i }) gps
        in
        proc ~frame ~nargs gps)
      (list_size (int_range 0 8) gen_gcpoint)
      (pair (int_range 0 40) (int_range 0 6)))

let prop_roundtrip =
  QCheck.Test.make ~name:"encode/decode roundtrip, random maps, all configs" ~count:150
    (QCheck.make gen_proc) (fun pm ->
      List.for_all
        (fun (_, scheme, opts) ->
          let ep = E.encode_proc scheme opts pm in
          let _, gps = D.decode_proc scheme opts ep in
          List.length gps = List.length pm.RM.pm_gcpoints
          && List.for_all2 (fun o g -> strip o = strip g) pm.RM.pm_gcpoints gps)
        Gcmaps.Table_stats.configs)

let prop_pp_never_larger =
  QCheck.Test.make ~name:"packing+previous never larger than packing alone" ~count:150
    (QCheck.make gen_proc) (fun pm ->
      let sz opts = Bytes.length (E.encode_proc E.Delta_main opts pm).E.ep_stream in
      sz { E.packing = true; previous = true } <= sz { E.packing = true; previous = false })

let prop_packing_never_larger =
  QCheck.Test.make ~name:"packing never larger than plain words" ~count:150
    (QCheck.make gen_proc) (fun pm ->
      let sz opts = Bytes.length (E.encode_proc E.Delta_main opts pm).E.ep_stream in
      sz { E.packing = true; previous = false } <= sz { E.packing = false; previous = false })

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

(* Each way a base can be described, and what is left when one is not. *)
let test_undescribed_bases () =
  let fp o = L.Lmem (L.FP, o) in
  let entry target plus = { RM.target; plus; minus = [] } in
  let undescribed g =
    List.map (fun (_, b) -> L.to_string b) (RM.undescribed_bases (proc ~nargs:2 [ g ]))
  in
  let chain =
    [
      entry (L.Lmem (L.AP, 0)) [ L.Lreg 6 ];
      entry (L.Lreg 6) [ fp (-3) ];
      entry (fp (-3)) [ fp (-2) ];
    ]
  in
  check (Alcotest.list Alcotest.string) "a chain ending in a dead slot" [ L.to_string (fp (-2)) ]
    (undescribed (gcp ~index:0 ~offset:0 ~derivs:chain ()));
  check (Alcotest.list Alcotest.string) "the slot listed" []
    (undescribed (gcp ~index:0 ~offset:0 ~stack:[ fp (-2) ] ~derivs:chain ()));
  let variant =
    {
      RM.path_loc = fp (-6);
      cases = [ (0, entry (fp (-7)) [ fp (-5) ]); (1, entry (fp (-7)) [ L.Lreg 9 ]) ];
    }
  in
  check (Alcotest.list Alcotest.string) "registers, argument words, targets, variant cases"
    (List.sort compare [ L.to_string (L.Lreg 9); L.to_string (fp 4) ])
    (List.sort compare
       (undescribed
          (gcp ~index:0 ~offset:0 ~regs:[ 2 ]
             ~derivs:[ entry (fp (-5)) [ L.Lreg 2; fp 2; fp 3; fp 4; fp (-7) ] ]
             ~variants:[ variant ] ())))

let test_table_stats () =
  let s = Gcmaps.Table_stats.compute [| sample_proc |] in
  check Alcotest.int "size" 200 s.Gcmaps.Table_stats.size_bytes;
  check Alcotest.int "ngcpoints" 4 s.Gcmaps.Table_stats.ngcpoints;
  check Alcotest.int "ngc (non-empty)" 3 s.Gcmaps.Table_stats.ngc;
  (* 2+2, 2+2, 1+0 pointers *)
  check Alcotest.int "nptrs" 9 s.Gcmaps.Table_stats.nptrs;
  (* delta tables: gcpoint2 identical to 1 -> 2 emitted *)
  check Alcotest.int "ndel" 2 s.Gcmaps.Table_stats.ndel;
  check Alcotest.int "nreg" 1 s.Gcmaps.Table_stats.nreg;
  check Alcotest.int "nder" 2 s.Gcmaps.Table_stats.nder

let () =
  Alcotest.run "tables"
    [
      ( "loc",
        [
          Alcotest.test_case "roundtrip" `Quick test_loc_roundtrip;
          Alcotest.test_case "one byte typical" `Quick test_loc_one_byte;
        ] );
      ( "encode/decode",
        [
          Alcotest.test_case "roundtrip all configs" `Quick test_roundtrip_all_configs;
          Alcotest.test_case "find by offset" `Quick test_find_by_offset;
          Alcotest.test_case "previous shrinks" `Quick test_previous_compression_smaller;
          Alcotest.test_case "packing shrinks" `Quick test_packing_much_smaller;
          Alcotest.test_case "deriv ordering" `Quick test_order_derivs;
          Alcotest.test_case "variants roundtrip" `Quick test_variants_roundtrip;
          Alcotest.test_case "undescribed bases" `Quick test_undescribed_bases;
          QCheck_alcotest.to_alcotest prop_roundtrip;
          QCheck_alcotest.to_alcotest prop_pp_never_larger;
          QCheck_alcotest.to_alcotest prop_packing_never_larger;
        ] );
      ("stats", [ Alcotest.test_case "table stats" `Quick test_table_stats ]);
    ]
