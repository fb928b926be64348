(* Differential random testing: generate random M3L programs over a safe
   fragment (guaranteed to terminate and stay within bounds) and check
   that every configuration of the compiler and collector produces
   identical output — including with heaps so small that many collections
   strike at arbitrary gc-points. *)


(* ------------------------------------------------------------------ *)
(* Generator                                                           *)
(* ------------------------------------------------------------------ *)

(* The generated fragment:
   - globals: INTEGER g0..g3, a linked list head, an open int array
   - a pool of helper procedures taking/returning integers, some of which
     allocate (so calls are gc-points with live state around them)
   - straight-line bodies of assignments, IFs, bounded FOR loops, calls,
     list pushes and array writes with in-range indices. *)

type expr =
  | Const of int
  | Global of int
  | LocalV of int (* l0..l2 *)
  | Add of expr * expr
  | Sub of expr * expr
  | Mul of expr * expr
  | CallHelper of int * expr

type stmt =
  | SetG of int * expr
  | SetL of int * expr
  | If of expr * stmt list * stmt list
  | For of int * int * stmt list (* bounded loop over the FOR var iv *)
  | Push of expr (* cons onto the global list *)
  | ArrSet of int * expr (* arr[const] := e *)
  | CallS of int * expr

type prog = { helpers : stmt list array; main : stmt list }

let rec gen_expr st depth =
  let open QCheck.Gen in
  if depth = 0 then
    oneof
      [
        map (fun n -> Const (n mod 100)) small_nat;
        map (fun g -> Global (g mod 4)) small_nat;
        map (fun l -> LocalV (l mod 3)) small_nat;
      ]
      st
  else
    oneof
      [
        map (fun n -> Const (n mod 100)) small_nat;
        map (fun g -> Global (g mod 4)) small_nat;
        map (fun l -> LocalV (l mod 3)) small_nat;
        map2 (fun a b -> Add (a, b)) (gen_expr' (depth - 1)) (gen_expr' (depth - 1));
        map2 (fun a b -> Sub (a, b)) (gen_expr' (depth - 1)) (gen_expr' (depth - 1));
        map2
          (fun a b -> Mul (a, b))
          (gen_expr' (depth - 1))
          (map (fun n -> Const ((n mod 5) + 1)) small_nat);
        map2 (fun h a -> CallHelper (h mod 3, a)) small_nat (gen_expr' (depth - 1));
      ]
      st

and gen_expr' depth st = gen_expr st depth

let rec gen_stmt st depth =
  let open QCheck.Gen in
  let e = gen_expr' 2 in
  if depth = 0 then
    oneof
      [
        map2 (fun g v -> SetG (g mod 4, v)) small_nat e;
        map2 (fun l v -> SetL (l mod 3, v)) small_nat e;
        map (fun v -> Push v) e;
        map2 (fun i v -> ArrSet (i mod 8, v)) small_nat e;
        map2 (fun h v -> CallS (h mod 3, v)) small_nat e;
      ]
      st
  else
    oneof
      [
        map2 (fun g v -> SetG (g mod 4, v)) small_nat e;
        map (fun v -> Push v) e;
        map3
          (fun c a b -> If (c, a, b))
          e
          (gen_stmts' (depth - 1))
          (gen_stmts' (depth - 1));
        map2
          (fun n body -> For ((n mod 4) + 2, (n mod 3) + 1, body))
          small_nat
          (gen_stmts' (depth - 1));
        map2 (fun h v -> CallS (h mod 3, v)) small_nat e;
      ]
      st

and gen_stmts' depth st =
  QCheck.Gen.(list_size (int_range 1 4) (fun st -> gen_stmt st depth)) st

let gen_prog =
  QCheck.Gen.(
    map2
      (fun helpers main -> { helpers = Array.of_list helpers; main })
      (list_repeat 3 (gen_stmts' 1))
      (gen_stmts' 2))

(* ------------------------------------------------------------------ *)
(* Printer to M3L                                                      *)
(* ------------------------------------------------------------------ *)

let rec pr_expr b = function
  | Const n -> Buffer.add_string b (string_of_int n)
  | Global g -> Buffer.add_string b (Printf.sprintf "g%d" g)
  | LocalV l -> Buffer.add_string b (Printf.sprintf "l%d" l)
  | Add (x, y) ->
      Buffer.add_char b '(';
      pr_expr b x;
      Buffer.add_string b " + ";
      pr_expr b y;
      Buffer.add_char b ')'
  | Sub (x, y) ->
      Buffer.add_char b '(';
      pr_expr b x;
      Buffer.add_string b " - ";
      pr_expr b y;
      Buffer.add_char b ')'
  | Mul (x, y) ->
      Buffer.add_char b '(';
      pr_expr b x;
      Buffer.add_string b " * ";
      pr_expr b y;
      Buffer.add_char b ')'
  | CallHelper (h, a) ->
      Buffer.add_string b (Printf.sprintf "H%d(" h);
      pr_expr b a;
      Buffer.add_char b ')'

let rec pr_stmts b ind stmts =
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ";\n";
      Buffer.add_string b ind;
      pr_stmt b ind s)
    stmts;
  Buffer.add_char b '\n'

and pr_stmt b ind = function
  | SetG (g, e) ->
      Buffer.add_string b (Printf.sprintf "g%d := " g);
      pr_expr b e
  | SetL (l, e) ->
      Buffer.add_string b (Printf.sprintf "l%d := " l);
      pr_expr b e
  | Push e ->
      Buffer.add_string b "PushList(";
      pr_expr b e;
      Buffer.add_char b ')'
  | ArrSet (i, e) ->
      Buffer.add_string b (Printf.sprintf "arr[%d] := " i);
      pr_expr b e
  | CallS (h, e) ->
      Buffer.add_string b (Printf.sprintf "l0 := H%d(" h);
      pr_expr b e;
      Buffer.add_char b ')'
  | If (c, a, bs) ->
      Buffer.add_string b "IF ";
      pr_expr b c;
      Buffer.add_string b " > 0 THEN\n";
      pr_stmts b (ind ^ "  ") a;
      Buffer.add_string b (ind ^ "ELSE\n");
      pr_stmts b (ind ^ "  ") bs;
      Buffer.add_string b (ind ^ "END")
  | For (hi, step, body) ->
      Buffer.add_string b (Printf.sprintf "FOR iv := 1 TO %d BY %d DO\n" hi step);
      pr_stmts b (ind ^ "  ") body;
      Buffer.add_string b (ind ^ "END")

let to_m3l (p : prog) : string =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "MODULE Rnd;\n\
     TYPE Node = RECORD v: INTEGER; n: List END; List = REF Node;\n\
     Arr = REF ARRAY OF INTEGER;\n\
     VAR g0, g1, g2, g3: INTEGER; head: List; arr: Arr;\n\n\
     PROCEDURE PushList(v: INTEGER);\n\
     VAR c: List;\n\
     BEGIN c := NEW(List); c.v := v; c.n := head; head := c END PushList;\n\n\
     PROCEDURE SumList(): INTEGER;\n\
     VAR s: INTEGER; l: List;\n\
     BEGIN s := 0; l := head;\n\
     WHILE l # NIL DO s := s + l.v; l := l.n END; RETURN s END SumList;\n\n";
  Array.iteri
    (fun i body ->
      Buffer.add_string b
        (Printf.sprintf
           "PROCEDURE H%d(x: INTEGER): INTEGER;\nVAR l0, l1, l2, iv: INTEGER;\nBEGIN\n"
           i);
      Buffer.add_string b "  l0 := x; l1 := x + 1; l2 := 0;\n";
      (* Helper bodies must not call other helpers recursively without
         bound: restrict statements inside helpers to non-call forms by
         rewriting CallS/CallHelper into arithmetic. *)
      let rec strip_e = function
        | CallHelper (_, a) -> Add (strip_e a, Const 7)
        | Add (a, b') -> Add (strip_e a, strip_e b')
        | Sub (a, b') -> Sub (strip_e a, strip_e b')
        | Mul (a, b') -> Mul (strip_e a, strip_e b')
        | e -> e
      in
      let rec strip_s = function
        | CallS (_, e) -> SetL (2, strip_e e)
        | SetG (g, e) -> SetG (g, strip_e e)
        | SetL (l, e) -> SetL (l, strip_e e)
        | Push e -> Push (strip_e e)
        | ArrSet (i, e) -> ArrSet (i, strip_e e)
        | If (c, x, y) -> If (strip_e c, List.map strip_s x, List.map strip_s y)
        | For (hi, st, body) -> For (hi, st, List.map strip_s body)
      in
      pr_stmts b "  " (List.map strip_s body);
      Buffer.add_string b ";\n  RETURN l0 + l1 + l2\nEND ";
      Buffer.add_string b (Printf.sprintf "H%d;\n\n" i))
    p.helpers;
  Buffer.add_string b "VAR l0, l1, l2, iv: INTEGER;\nBEGIN\n";
  Buffer.add_string b "  arr := NEW(Arr, 8);\n  l0 := 0; l1 := 0; l2 := 0;\n";
  pr_stmts b "  " p.main;
  Buffer.add_string b
    ";\n  PutInt(g0 + g1 * 3 + g2 * 5 + g3 * 7); PutChar(' ');\n\
     \  PutInt(SumList()); PutChar(' ');\n\
     \  FOR iv := 0 TO 7 DO PutInt(arr[iv]); PutChar(',') END;\n\
     \  PutLn()\nEND Rnd.\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* The differential property                                           *)
(* ------------------------------------------------------------------ *)

(* Heap sizing is deterministic per generated program: starting from the
   smallest heap that makes collections strike at arbitrary gc-points
   ([small_heap]), one heap doubles until every configuration completes,
   and the property then demands output equality from every one of them.
   Only [Heap_exhausted] climbs a step; any other exception fails the
   property, and so does a program that exhausts even [fit_cap] words.
   The reference rows keep the big fixed heap. *)
let small_heap = 600
let fit_cap = 65536

let run_cfg src h (optimize, checks, small, collector, barrier_elim, threaded) =
  let options =
    {
      Driver.Compile.default_options with
      optimize;
      checks;
      heap_words = (if small then h else fit_cap);
      barrier_elim;
    }
  in
  Driver.Compile.run_source ~options ~collector ~threaded ~fuel:20_000_000 src

(* [Some (h, f h)] for the first heap [h] of the ladder on which [f] does
   not exhaust; [None] if it exhausts even at [fit_cap]. *)
let rec fit f h =
  match f h with
  | r -> Some (h, r)
  | exception Vm.Vm_error.Error (Vm.Vm_error.Heap_exhausted _) ->
      if h >= fit_cap then None else fit f (min fit_cap (2 * h))

(* The configuration matrix; [true] in the third place runs the row at
   the fitted small heap, and [true] in the last on the threaded engine.
   The first entry is the reference (big heap, unoptimized, precise). The
   conservative collector keeps the big heap. *)
let configs =
  [
    (false, true, false, Driver.Compile.Precise, true, true);
    (true, true, false, Driver.Compile.Precise, true, false);
    (false, true, true, Driver.Compile.Precise, true, false);
    (true, true, true, Driver.Compile.Precise, true, true);
    (false, false, true, Driver.Compile.Precise, true, true);
    (true, false, true, Driver.Compile.Precise, true, false);
    (false, true, false, Driver.Compile.Conservative, true, true);
    (* generational × {barrier elimination on, off} *)
    (false, true, false, Driver.Compile.Generational, true, false);
    (false, true, true, Driver.Compile.Generational, true, true);
    (true, true, true, Driver.Compile.Generational, true, false);
    (false, true, true, Driver.Compile.Generational, false, false);
    (true, true, true, Driver.Compile.Generational, false, true);
    (* incremental: non-moving, so a fragmenting row climbs the ladder *)
    (false, true, true, Driver.Compile.Incremental, true, true);
    (true, true, true, Driver.Compile.Incremental, true, false);
    (true, false, true, Driver.Compile.Incremental, true, true);
  ]

let prop_differential =
  QCheck.Test.make ~name:"random programs agree across all configurations" ~count:60
    (QCheck.make ~print:(fun p -> to_m3l p) gen_prog)
    (fun p ->
      let src = to_m3l p in
      (* The heap verifier runs before and after every collection of
         every configuration below; for the generational ones that
         includes the old→young remembered-set check — with and without
         the static barrier elimination, so an unsound elimination fails
         here, not just output equality — and for the incremental ones
         the tri-color check. A verifier violation raises (Verify_failed
         is not Heap_exhausted) and fails the property. *)
      Gc.Verify.set_pre true;
      Gc.Verify.set_post true;
      Fun.protect
        ~finally:(fun () ->
          Gc.Verify.set_pre false;
          Gc.Verify.set_post false)
        (fun () ->
          let outputs h =
            List.map (fun cfg -> (run_cfg src h cfg).Driver.Compile.output) configs
          in
          match fit outputs small_heap with
          | Some (_, reference :: rest) -> List.for_all (fun out -> out = reference) rest
          | Some (_, []) -> false
          | None -> QCheck.Test.fail_reportf "a configuration exhausted even a %d-word heap" fit_cap))

(* The NIL checks the optimizer proves dead, kept behind a trap in audit
   mode, never fire: at O1 under the precise, generational and
   incremental collectors, on the fitted small heap, every program prints
   what the unoptimized reference prints. *)
let prop_nonnil_audit =
  QCheck.Test.make ~name:"eliminated NIL checks never fire" ~count:60
    (QCheck.make ~print:(fun p -> to_m3l p) gen_prog)
    (fun p ->
      let src = to_m3l p in
      let run h (optimize, collector) =
        Audit.run_source ~fuel:20_000_000
          { Driver.Compile.default_options with optimize; heap_words = h }
          ~collector ~threaded:true src
      in
      let outputs h =
        List.map (run h)
          [
            (false, Driver.Compile.Precise);
            (true, Driver.Compile.Precise);
            (true, Driver.Compile.Generational);
            (true, Driver.Compile.Incremental);
          ]
      in
      match fit outputs small_heap with
      | Some (_, reference :: rest) -> List.for_all (fun out -> out = reference) rest
      | Some (_, []) -> false
      | None -> QCheck.Test.fail_reportf "exhausted even a %d-word heap" fit_cap)

let prop_collections_strike =
  (* Sanity: the fitted small heap really does put the collector under
     pressure on allocating programs (otherwise the property above
     degenerates into big-heap-only coverage). Whenever a program
     allocates more words than the heap it completed on holds, it must
     have collected. *)
  QCheck.Test.make ~name:"small heaps collect on list-heavy programs"
    ~count:30 (QCheck.make gen_prog) (fun p ->
      let src = to_m3l p in
      match fit (fun h -> run_cfg src h (false, true, true, Driver.Compile.Precise, true, true)) small_heap with
      | Some (h, r) -> r.Driver.Compile.alloc_words <= h || r.Driver.Compile.collections > 0
      | None -> QCheck.Test.fail_reportf "exhausted even a %d-word heap" fit_cap)

let prop_liveness_oracle =
  QCheck.Test.make ~name:"liveness matches the round-robin oracle" ~count:60
    (QCheck.make ~print:(fun p -> to_m3l p) gen_prog)
    (fun p ->
      let src = to_m3l p in
      List.for_all
        (fun optimize ->
          let options = { Driver.Compile.default_options with optimize } in
          Array.for_all
            (fun f ->
              match Liveness_oracle.disagreement f with
              | None -> true
              | Some d -> QCheck.Test.fail_reportf "O%d: %s" (Bool.to_int optimize) d)
            (Driver.Compile.to_mir ~options src).Mir.Ir.funcs)
        [ false; true ])

let prop_bases_described =
  QCheck.Test.make ~name:"tables describe every derivation base" ~count:60
    (QCheck.make ~print:(fun p -> to_m3l p) gen_prog)
    (fun p ->
      let src = to_m3l p in
      List.for_all
        (fun (optimize, checks) ->
          let options = { Driver.Compile.default_options with optimize; checks } in
          match Dead_base.undescribed (Driver.Compile.compile ~options src) with
          | None -> true
          | Some d -> QCheck.Test.fail_reportf "O%d checks=%b: %s" (Bool.to_int optimize) checks d)
        [ (false, true); (true, true); (false, false); (true, false) ])

let prop_opt_oracle =
  QCheck.Test.make ~name:"optimizer matches its oracles at O1" ~count:60
    (QCheck.make ~print:(fun p -> to_m3l p) gen_prog)
    (fun p ->
      match Opt_oracle.check_source (to_m3l p) with
      | None -> true
      | Some d -> QCheck.Test.fail_reportf "%s" d)

let prop_layout =
  QCheck.Test.make ~name:"layout keeps every gc-point's roots" ~count:60
    (QCheck.make ~print:(fun p -> to_m3l p) gen_prog)
    (fun p ->
      match Layout_check.check_source (to_m3l p) with
      | None -> true
      | Some d -> QCheck.Test.fail_reportf "%s" d)

let () =
  Alcotest.run "random"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_differential;
          QCheck_alcotest.to_alcotest prop_collections_strike;
          QCheck_alcotest.to_alcotest prop_nonnil_audit;
          QCheck_alcotest.to_alcotest prop_liveness_oracle;
          QCheck_alcotest.to_alcotest prop_bases_described;
          QCheck_alcotest.to_alcotest prop_opt_oracle;
          QCheck_alcotest.to_alcotest prop_layout;
        ] );
    ]
