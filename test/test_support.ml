(* Unit and property tests for the support library: the Fig. 3 varint
   codec, bitsets, growable arrays and the PRNG. *)

open Support

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Varint                                                              *)
(* ------------------------------------------------------------------ *)

let roundtrip v =
  let b = Varint.encode_to_bytes v in
  let v', pos = Varint.decode b 0 in
  check Alcotest.int "value" v v';
  check Alcotest.int "consumed" (Bytes.length b) pos

let test_varint_small () =
  List.iter roundtrip [ 0; 1; -1; 63; -64; 64; -65; 127; 128; -128; 1000; -1000 ]

let test_varint_boundaries () =
  (* 7-bit group boundaries: -(2^(7k-1)) and 2^(7k-1)-1 switch lengths. *)
  List.iter
    (fun k ->
      let hi = (1 lsl ((7 * k) - 1)) - 1 in
      let lo = -(1 lsl ((7 * k) - 1)) in
      check Alcotest.int (Printf.sprintf "len hi k=%d" k) k (Varint.byte_length hi);
      check Alcotest.int (Printf.sprintf "len lo k=%d" k) k (Varint.byte_length lo);
      check Alcotest.int
        (Printf.sprintf "len hi+1 k=%d" k)
        (k + 1)
        (Varint.byte_length (hi + 1));
      check Alcotest.int
        (Printf.sprintf "len lo-1 k=%d" k)
        (k + 1)
        (Varint.byte_length (lo - 1));
      roundtrip hi;
      roundtrip lo;
      roundtrip (hi + 1);
      roundtrip (lo - 1))
    [ 1; 2; 3; 4; 5 ]

let test_varint_single_byte () =
  (* The paper's claim: most ground-table entries fit in one byte; values in
     [-64, 63] must take exactly one. *)
  for v = -64 to 63 do
    check Alcotest.int "one byte" 1 (Varint.byte_length v)
  done

let test_varint_stream () =
  (* Several values encoded back to back decode in sequence. *)
  let values = [ 5; -3; 1000; 0; -70000; 42 ] in
  let buf = Buffer.create 32 in
  List.iter (Varint.encode buf) values;
  let b = Buffer.to_bytes buf in
  let pos = ref 0 in
  List.iter
    (fun v ->
      let v', p = Varint.decode b !pos in
      check Alcotest.int "stream value" v v';
      pos := p)
    values;
  check Alcotest.int "stream consumed" (Bytes.length b) !pos

let test_varint_truncated () =
  (* A continuation bit with nothing after it must raise. *)
  let b = Bytes.of_string "\x80" in
  Alcotest.check_raises "truncated" (Invalid_argument "Varint.decode: truncated encoding")
    (fun () -> ignore (Varint.decode b 0))

let test_varint_extremes () =
  (* The widest representable values take the full 9 bytes and round-trip. *)
  check Alcotest.int "max_bytes" 9 Varint.max_bytes;
  check Alcotest.int "min_int length" Varint.max_bytes (Varint.byte_length min_int);
  check Alcotest.int "max_int length" Varint.max_bytes (Varint.byte_length max_int);
  roundtrip min_int;
  roundtrip max_int;
  roundtrip (min_int + 1);
  roundtrip (max_int - 1)

let test_varint_overlong () =
  (* A run of continuation bytes longer than any 63-bit value could need
     must be rejected rather than accumulate silently (or spin). *)
  let b = Bytes.make 12 '\x80' in
  Alcotest.check_raises "overlong"
    (Invalid_argument "Varint.decode: overlong encoding (> 63 bits)") (fun () ->
      ignore (Varint.decode b 0));
  (* Exactly at the limit, a terminated 9-byte stream still decodes. *)
  let ok = Varint.encode_to_bytes min_int in
  let v, pos = Varint.decode ok 0 in
  check Alcotest.int "min_int decodes" min_int v;
  check Alcotest.int "min_int consumed" Varint.max_bytes pos

let prop_varint_roundtrip =
  QCheck.Test.make ~name:"varint roundtrip (arbitrary int)" ~count:1000
    QCheck.(frequency [ (3, small_signed_int); (2, int) ])
    (fun v ->
      let b = Varint.encode_to_bytes v in
      let v', pos = Varint.decode b 0 in
      v = v' && pos = Bytes.length b)

let prop_varint_length_monotone =
  QCheck.Test.make ~name:"varint length grows with magnitude" ~count:500
    QCheck.(pair small_nat small_nat)
    (fun (a, b) ->
      let x = min a b and y = max a b in
      Varint.byte_length x <= Varint.byte_length y)

(* ------------------------------------------------------------------ *)
(* Bitset                                                              *)
(* ------------------------------------------------------------------ *)

let test_bitset_basic () =
  let b = Bitset.create 70 in
  check Alcotest.bool "empty" true (Bitset.is_empty b);
  Bitset.set b 0;
  Bitset.set b 63;
  Bitset.set b 69;
  check Alcotest.bool "mem 0" true (Bitset.mem b 0);
  check Alcotest.bool "mem 63" true (Bitset.mem b 63);
  check Alcotest.bool "mem 69" true (Bitset.mem b 69);
  check Alcotest.bool "mem 1" false (Bitset.mem b 1);
  check Alcotest.int "count" 3 (Bitset.count b);
  Bitset.clear b 63;
  check Alcotest.bool "cleared" false (Bitset.mem b 63);
  check Alcotest.int "count after clear" 2 (Bitset.count b)

let test_bitset_bounds () =
  let b = Bitset.create 8 in
  Alcotest.check_raises "set out of bounds" (Invalid_argument "Bitset: index out of bounds")
    (fun () -> Bitset.set b 8);
  Alcotest.check_raises "neg" (Invalid_argument "Bitset: index out of bounds") (fun () ->
      ignore (Bitset.mem b (-1)))

let test_bitset_bytes_roundtrip () =
  let b = Bitset.create 19 in
  List.iter (Bitset.set b) [ 0; 3; 7; 8; 15; 18 ];
  let packed = Bitset.to_bytes b in
  check Alcotest.int "packed size" 3 (Bytes.length packed);
  let b', pos = Bitset.of_bytes ~width:19 packed 0 in
  check Alcotest.bool "equal" true (Bitset.equal b b');
  check Alcotest.int "pos" 3 pos

let prop_bitset_roundtrip =
  QCheck.Test.make ~name:"bitset to_bytes/of_bytes roundtrip" ~count:300
    QCheck.(pair (int_range 1 200) (list small_nat))
    (fun (width, indices) ->
      let b = Bitset.create width in
      List.iter (fun i -> if i < width then Bitset.set b i) indices;
      let b', _ = Bitset.of_bytes ~width (Bitset.to_bytes b) 0 in
      Bitset.equal b b')

let prop_bitset_union =
  QCheck.Test.make ~name:"union contains both operands" ~count:300
    QCheck.(triple (int_range 1 100) (list small_nat) (list small_nat))
    (fun (width, xs, ys) ->
      let a = Bitset.create width and b = Bitset.create width in
      List.iter (fun i -> if i < width then Bitset.set a i) xs;
      List.iter (fun i -> if i < width then Bitset.set b i) ys;
      let u = Bitset.copy a in
      Bitset.union_into ~dst:u b;
      Bitset.fold (fun i acc -> acc && Bitset.mem u i) a true
      && Bitset.fold (fun i acc -> acc && Bitset.mem u i) b true)

(* Widths at the 62-bit word edges, plus a few others. *)
let arb_bitset =
  QCheck.(
    pair (oneofl [ 1; 61; 62; 63; 124; 125; 200 ]) (list (int_bound 250))
    |> map (fun (width, xs) ->
           let b = Bitset.create width in
           List.iter (fun i -> Bitset.set b (i mod width)) xs;
           b))

let members_naive b = List.filter (Bitset.mem b) (List.init (Bitset.length b) Fun.id)

let prop_bitset_walks =
  QCheck.Test.make ~name:"iter, fold and count agree with a per-bit scan" ~count:500
    arb_bitset (fun b ->
      let naive = members_naive b in
      let seen = ref [] in
      Bitset.iter (fun i -> seen := i :: !seen) b;
      List.rev !seen = naive
      && Bitset.fold List.cons b [] = List.rev naive
      && Bitset.count b = List.length naive)

let prop_bitset_equal =
  QCheck.Test.make ~name:"equal agrees with a per-bit comparison" ~count:500
    QCheck.(pair arb_bitset (list_of_size Gen.(int_bound 2) (int_bound 250)))
    (fun (a, toggles) ->
      let b = Bitset.copy a in
      let width = Bitset.length a in
      List.iter
        (fun i ->
          let i = i mod width in
          if Bitset.mem b i then Bitset.clear b i else Bitset.set b i)
        toggles;
      Bitset.equal a b = (members_naive a = members_naive b)
      && (not (Bitset.equal a (Bitset.create (width + 1))))
      && Bitset.equal b b)

(* [prev_set] against a naive downward scan at every index: widths at
   and around the 62-bit word edges, and sets from empty through sparse
   (long runs of zero words to skip) to dense. *)
let prop_bitset_prev_set =
  QCheck.Test.make ~name:"prev_set agrees with a downward scan" ~count:500
    QCheck.(
      triple
        (oneof [ oneofl [ 1; 61; 62; 63; 123; 124; 125; 186; 187 ]; int_range 1 400 ])
        (int_bound 2) (list (int_bound 1000)))
    (fun (width, density, xs) ->
      let b = Bitset.create width in
      let xs = match density with 0 -> [] | 1 -> List.filteri (fun i _ -> i < 3) xs | _ -> xs in
      List.iter (fun i -> Bitset.set b (i mod width)) xs;
      let rec naive i = if i < 0 || Bitset.mem b i then i else naive (i - 1) in
      List.for_all (fun i -> Bitset.prev_set b i = naive i) (List.init width Fun.id)
      && (match Bitset.prev_set b width with
         | _ -> false
         | exception Invalid_argument _ -> true))

(* [iter]'s [f] must not mutate the set it walks: each word is read once,
   before its bits are visited, so a bit set in that word during the walk
   is missed (a per-bit walk would have seen it). Walk a copy to mutate. *)
let test_bitset_iter_mutation () =
  let b = Bitset.create 10 in
  Bitset.set b 0;
  let seen = ref [] in
  Bitset.iter
    (fun i ->
      seen := i :: !seen;
      if i = 0 then Bitset.set b 5)
    b;
  check Alcotest.(list int) "a bit set during the walk is not visited" [ 0 ] !seen;
  let seen = ref [] in
  Bitset.iter
    (fun i ->
      seen := i :: !seen;
      Bitset.clear b i)
    (Bitset.copy b);
  check Alcotest.(list int) "walking a copy visits every bit" [ 0; 5 ] (List.rev !seen);
  check Alcotest.bool "and the original is emptied" true (Bitset.is_empty b)

(* ------------------------------------------------------------------ *)
(* Growarr, Prng                                                       *)
(* ------------------------------------------------------------------ *)

let test_growarr () =
  let g = Growarr.create ~dummy:(-1) in
  for i = 0 to 99 do
    let idx = Growarr.push g (i * 2) in
    check Alcotest.int "push index" i idx
  done;
  check Alcotest.int "length" 100 (Growarr.length g);
  check Alcotest.int "get 50" 100 (Growarr.get g 50);
  Growarr.set g 50 7;
  check Alcotest.int "set/get" 7 (Growarr.get g 50);
  check Alcotest.int "to_array" 100 (Array.length (Growarr.to_array g))

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Prng.next a) (Prng.next b)
  done

let test_prng_bounds () =
  let p = Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Prng.int p 10 in
    check Alcotest.bool "in range" true (v >= 0 && v < 10)
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int p 0))

(* ------------------------------------------------------------------ *)
(* Runtime config: one parser, typed refusals                          *)
(* ------------------------------------------------------------------ *)

module RC = Runtime_config

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let refusal what f =
  match f () with
  | _ -> Alcotest.failf "%s: accepted" what
  | exception RC.Config_error e -> e

(* A set MM_* variable is refused, naming every one that is set, so a
   script that still exports one of the variables that once chose the
   collector, the engine or the verifier fails instead of silently
   running something else. *)
let test_config_environment () =
  RC.refuse_environment ~env:[| "HOME=/h"; "MMX=1"; "QCHECK_SEED=7" |] ();
  let retired =
    List.map (( ^ ) "MM_") [ "GEN"; "GC_INCREMENTAL"; "THREADED"; "VERIFY_HEAP"; "VERIFY_PRE" ]
  in
  List.iter
    (fun var ->
      let env = [| "PATH=/b"; var ^ "=1"; "HOME=/h"; "MM_=" |] in
      match refusal var (fun () -> RC.refuse_environment ~env ()) with
      | RC.Environment vars as e ->
          check Alcotest.(list string) (var ^ ": names both") [ var; "MM_" ] vars;
          check Alcotest.bool (var ^ ": message names them") true
            (contains (RC.message e) (var ^ ", MM_ set"))
      | _ -> Alcotest.failf "%s: not an environment refusal" var)
    retired

(* The refusals mmrun reports with exit 16, each built as mmrun builds
   its request (every setting under its flag's name). *)
let test_config_refusals () =
  let resolve ?collector ?(needs = []) ?gc_unsafe ?(bounds = []) () =
    RC.resolve ?collector ~needs ?gc_unsafe ~bounds ()
  in
  let conflict what expected f =
    match refusal what f with
    | RC.Conflict { first; second; _ } as e ->
        check Alcotest.(pair string string) what expected (first, second);
        let msg = RC.message e in
        check Alcotest.bool (what ^ ": message names both") true
          (contains msg first && contains msg second)
    | _ -> Alcotest.failf "%s: not a conflict" what
  in
  let gen = ("--collector gen", RC.Generational) in
  let inc = ("--collector inc", RC.Incremental) in
  let conservative = ("--collector conservative", RC.Conservative) in
  (* A setting that only one collector reads, given to another, would be
     dropped silently. *)
  let nursery = ("--nursery 64", RC.Generational) in
  let placement = ("--placement p.json", RC.Generational) in
  let budget n = (Printf.sprintf "--pause-budget-us %d" n, RC.Incremental) in
  conflict "--nursery 64" ("the precise collector", "--nursery 64") (fun () ->
      resolve ~needs:[ nursery ] ());
  conflict "--pause-budget-us 50" ("the precise collector", "--pause-budget-us 50") (fun () ->
      resolve ~needs:[ budget 50 ] ());
  conflict "--collector inc --nursery 64" ("--collector inc", "--nursery 64") (fun () ->
      resolve ~collector:inc ~needs:[ nursery ] ());
  conflict "--collector precise --placement p.json" ("--collector precise", "--placement p.json")
    (fun () -> resolve ~collector:("--collector precise", RC.Precise) ~needs:[ placement ] ());
  conflict "--collector inc --placement p.json" ("--collector inc", "--placement p.json")
    (fun () -> resolve ~collector:inc ~needs:[ placement ] ());
  conflict "--collector gen --pause-budget-us 500" ("--collector gen", "--pause-budget-us 500")
    (fun () -> resolve ~collector:gen ~needs:[ budget 500 ] ());
  conflict "--collector conservative --pause-budget-us 50"
    ("--collector conservative", "--pause-budget-us 50") (fun () ->
      resolve ~collector:conservative ~needs:[ budget 50 ] ());
  (* Code built without gc restrictions runs only with no collector. *)
  conflict "--no-gc-restrict" ("the precise collector", "--no-gc-restrict") (fun () ->
      resolve ~gc_unsafe:"--no-gc-restrict" ());
  conflict "--collector gen --no-gc-restrict" ("--collector gen", "--no-gc-restrict") (fun () ->
      resolve ~collector:gen ~gc_unsafe:"--no-gc-restrict" ());
  (match
     refusal "--nursery 0 --collector gen" (fun () ->
         resolve ~collector:gen ~bounds:[ ("--nursery", Some 0, 1) ] ())
   with
  | RC.Bad_value { setting; value; _ } ->
      check Alcotest.(pair string string) "--nursery 0" ("--nursery", "0") (setting, value)
  | _ -> Alcotest.fail "--nursery 0: not a bad value");
  (match refusal "--pause-budget-us -5" (fun () -> resolve ~bounds:[ ("--pause-budget-us", Some (-5), 0) ] ()) with
  | RC.Bad_value { setting; _ } -> check Alcotest.string "--pause-budget-us -5" "--pause-budget-us" setting
  | _ -> Alcotest.fail "--pause-budget-us -5: not a bad value");
  (* Accepted: the default is the precise collector, and each setting
     under the collector that reads it. *)
  let accepted what expected c = check Alcotest.bool what true (c = expected) in
  accepted "no collector named" RC.Precise (resolve ());
  accepted "--collector gen --nursery 1 --pause-budget-us 0 bounds" RC.Generational
    (resolve ~collector:gen ~bounds:[ ("--nursery", Some 1, 1); ("--pause-budget-us", Some 0, 0) ] ());
  accepted "--collector none --no-gc-restrict" RC.No_gc
    (resolve ~collector:("--collector none", RC.No_gc) ~gc_unsafe:"--no-gc-restrict" ());
  accepted "--collector gen --nursery 512 --placement p.json" RC.Generational
    (resolve ~collector:gen ~needs:[ ("--nursery 512", RC.Generational); placement ] ());
  accepted "--collector inc --pause-budget-us 500" RC.Incremental
    (resolve ~collector:inc ~needs:[ budget 500 ] ())

let () =
  Alcotest.run "support"
    [
      ( "varint",
        [
          Alcotest.test_case "small values" `Quick test_varint_small;
          Alcotest.test_case "group boundaries" `Quick test_varint_boundaries;
          Alcotest.test_case "single byte range" `Quick test_varint_single_byte;
          Alcotest.test_case "stream" `Quick test_varint_stream;
          Alcotest.test_case "truncated" `Quick test_varint_truncated;
          Alcotest.test_case "extreme values" `Quick test_varint_extremes;
          Alcotest.test_case "overlong rejected" `Quick test_varint_overlong;
          QCheck_alcotest.to_alcotest prop_varint_roundtrip;
          QCheck_alcotest.to_alcotest prop_varint_length_monotone;
        ] );
      ( "bitset",
        [
          Alcotest.test_case "basic" `Quick test_bitset_basic;
          Alcotest.test_case "bounds" `Quick test_bitset_bounds;
          Alcotest.test_case "bytes roundtrip" `Quick test_bitset_bytes_roundtrip;
          QCheck_alcotest.to_alcotest prop_bitset_roundtrip;
          QCheck_alcotest.to_alcotest prop_bitset_union;
          QCheck_alcotest.to_alcotest prop_bitset_walks;
          QCheck_alcotest.to_alcotest prop_bitset_equal;
          QCheck_alcotest.to_alcotest prop_bitset_prev_set;
          Alcotest.test_case "iter: f must not mutate" `Quick test_bitset_iter_mutation;
        ] );
      ( "misc",
        [
          Alcotest.test_case "growarr" `Quick test_growarr;
          Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "prng bounds" `Quick test_prng_bounds;
        ] );
      ( "config",
        [
          Alcotest.test_case "set MM_* variables are refused" `Quick test_config_environment;
          Alcotest.test_case "contradictions are typed errors" `Quick test_config_refusals;
        ] );
    ]
