(** The six fixed workloads. README.md says why each was chosen; the
    comments here say what each one stresses. *)

(* --- seeds ----------------------------------------------------------- *)

(** The destroy family seeds its own LCG with this one statement. *)
let seed_literal = "seed := 12345;"

let occurrences ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i acc =
    if i + n > m then List.rev acc
    else if String.sub s i n = sub then go (i + n) (i :: acc)
    else go (i + 1) acc
  in
  go 0 []

(** Replace the seed statement of a destroy-family source. The LCG works
    modulo 2^30, so the seed is reduced into that range; the default seed
    leaves the source byte-identical. Fails unless exactly one statement
    matches, so a reworded source cannot silently ignore the seed. *)
let with_seed ~seed src =
  match occurrences ~sub:seed_literal src with
  | [ i ] ->
      let modulus = 1 lsl 30 in
      let seed = ((seed mod modulus) + modulus) mod modulus in
      let j = i + String.length seed_literal in
      String.sub src 0 i
      ^ Printf.sprintf "seed := %d;" seed
      ^ String.sub src j (String.length src - j)
  | found ->
      failwith
        (Printf.sprintf "seed substitution: expected exactly one %S in the source, found %d"
           seed_literal (List.length found))

(* --- the wide-heap program ------------------------------------------- *)

(** A complete tree kept live while a loop allocates short-lived INTEGER
    arrays: every collection copies the whole tree, level by level, so
    its widest levels take the parallel copy path, and the stack stays
    shallow. *)
let wide_heap_source ~branch ~depth ~arrays ~array_words =
  Printf.sprintf
    {|
MODULE WideHeap;

TYPE
  NodeRec = RECORD
    value: INTEGER;
    kids: Kids
  END;
  Node = REF NodeRec;
  Kids = REF ARRAY OF Node;
  Ints = REF ARRAY OF INTEGER;

VAR
  root: Node;
  sum: INTEGER;

PROCEDURE Make(depth: INTEGER): Node;
VAR t: Node; k: Kids; i: INTEGER;
BEGIN
  k := NIL;
  IF depth > 0 THEN
    k := NEW(Kids, %d);
    FOR i := 0 TO %d DO
      k[i] := Make(depth - 1)
    END
  END;
  t := NEW(Node);
  t.value := depth;
  t.kids := k;
  RETURN t
END Make;

PROCEDURE Count(t: Node): INTEGER;
VAR n, i: INTEGER;
BEGIN
  IF t = NIL THEN RETURN 0 END;
  n := 1;
  IF t.kids # NIL THEN
    FOR i := 0 TO NUMBER(t.kids) - 1 DO
      n := n + Count(t.kids[i])
    END
  END;
  RETURN n
END Count;

PROCEDURE Churn(n, words: INTEGER): INTEGER;
VAR a: Ints; i, s: INTEGER;
BEGIN
  s := 0;
  FOR i := 1 TO n DO
    a := NEW(Ints, words);
    a[0] := i;
    s := s + a[0]
  END;
  RETURN s
END Churn;

BEGIN
  root := Make(%d);
  sum := Churn(%d, %d);
  PutText("wide-heap: nodes=");
  PutInt(Count(root));
  PutText(" sum=");
  PutInt(sum);
  PutLn()
END WideHeap.
|}
    branch (branch - 1) depth arrays array_words

(* --- workload definitions ---------------------------------------------- *)

type exec_spec = {
  source : seed:int -> string;
  heap_words : int; (* per semispace; programs are compiled at O1 *)
  collector : Hooks.collector;
  workers : int; (* copy workers *)
  trained : bool; (* set-up derives a placement from a training run *)
  alternate : bool;
      (* time slice polls only on every other execution, and leave those
         executions out of the execution-time samples *)
  expected : string;
}

(** How a corpus program's output is checked in preflight. *)
type check =
  | Expect of string  (** a reference written independently of the compiler *)
  | Same_across_levels  (** no reference: O0 and O1 agree, and no "BUG" line *)

type kind = Corpus | Exec of exec_spec
type t = { name : string; kind : kind }

(** The paper's Table 1 programs plus ambig and indirect, each compiled at
    O0 and O1 by every iteration of the compile workload. *)
let corpus =
  let open Programs in
  [
    ("typereg", Typereg_src.src, Same_across_levels);
    ("FieldList", Fieldlist_src.src, Same_across_levels);
    ("takl", Takl_src.src, Expect Takl_src.expected);
    ( "destroy",
      Destroy_src.src,
      Expect (Reference.destroy ~branch:3 ~depth:6 ~replace_depth:3 ~iterations:60) );
    ("ambig", Ambig_src.src, Expect Ambig_src.expected);
    ("indirect", Indirect_src.src, Expect Indirect_src.expected);
  ]

let exec ?(workers = 1) ?(trained = false) ?(alternate = false) ~heap_words ~collector
    ~expected source =
  Exec { source; heap_words; collector; workers; trained; alternate; expected }

let destroy_family ~ballast ~iterations ~seed =
  let src =
    if ballast = 0 then
      Programs.Destroy_src.make ~branch:4 ~depth:5 ~replace_depth:2 ~iterations
    else
      Programs.Destroy_src.make_ballast ~ballast ~branch:4 ~depth:5 ~replace_depth:2
        ~iterations
  in
  with_seed ~seed src

let destroy_expected ~iterations =
  Reference.destroy ~branch:4 ~depth:5 ~replace_depth:2 ~iterations

let wide_heap ~workers =
  exec ~workers ~heap_words:200_000 ~collector:Hooks.Cheney
    ~expected:(Reference.wide_heap ~branch:8 ~depth:5 ~arrays:500)
    (fun ~seed:_ -> wide_heap_source ~branch:8 ~depth:5 ~arrays:500 ~array_words:2048)

let all =
  [
    (* The compiler layers only; nothing is executed. *)
    { name = "compile"; kind = Corpus };
    (* The mutator and engine: about 11M instructions, no collection. *)
    {
      name = "takl";
      kind =
        exec ~heap_words:1200 ~collector:Hooks.Cheney
          ~expected:(Reference.takl ~n1:14 ~n2:10 ~n3:4 ~repeats:5 ~ballast:100)
          (fun ~seed:_ -> Programs.Takl_src.make ~n1:14 ~n2:10 ~n3:4 ~repeats:5 ~ballast:100);
    };
    (* The paper's gc benchmark on a tight heap: hundreds of full
       collections, each walking the stack through the tables. *)
    {
      name = "destroy";
      kind =
        exec ~heap_words:8000 ~collector:Hooks.Cheney
          ~expected:(destroy_expected ~iterations:2000)
          (destroy_family ~ballast:0 ~iterations:2000);
    };
    (* Nursery, write barrier, remembered set and profile-guided placement. *)
    {
      name = "gen-pgo";
      kind =
        exec ~trained:true ~heap_words:100_000 ~collector:(Hooks.Nursery 4000)
          ~expected:(destroy_expected ~iterations:400)
          (destroy_family ~ballast:15_000 ~iterations:400);
    };
    (* Pause latency: non-moving incremental marking under a 100 µs budget. *)
    {
      name = "inc-budget";
      kind =
        exec ~alternate:true ~heap_words:160_000 ~collector:(Hooks.Incremental 100)
          ~expected:(destroy_expected ~iterations:1200)
          (destroy_family ~ballast:12_000 ~iterations:1200);
    };
    (* Copy bandwidth: gc is most of the run, copying a large live tree. *)
    { name = "wide-heap"; kind = wide_heap ~workers:1 };
  ]

(** The wide-heap program with two copy workers, whose widest rounds take
    the parallel path. Not registered: on a shared 2-vCPU host a stall of
    either CPU stalls the copy, and its run-to-run spread exceeds any
    bound the benchmark can fix (README.md has the numbers). Run it by
    name next to wide-heap to compare serial and parallel copying. *)
let extra = [ { name = "wide-heap-par"; kind = wide_heap ~workers:2 } ]

(** Workloads whose collector records the four copying phases (stack
    walk, un-derive, copy, re-derive) in its own histograms — the ones
    the traced pass can check its outside gc time against. *)
let copying w =
  match w.kind with
  | Exec { collector = Hooks.Cheney | Hooks.Nursery _; _ } -> true
  | Exec { collector = Hooks.Incremental _; _ } | Corpus -> false

(** The registered workloads, the ones [BENCHMARK.json] lists. *)
let names = List.map (fun w -> w.name) all

let find name = List.find_opt (fun w -> w.name = name) (all @ extra)
