(** destroy — the paper's gc-stress benchmark (§6.1, §6.3): build a complete
    tree of a given branching factor and depth, then repeatedly build a new
    subtree at a fixed intermediate depth and replace a randomly chosen
    subtree of the same height with it. Heavily recursive; triggers
    collection frequently. The PRNG is a deterministic LCG written in the
    benchmark itself so runs are reproducible. *)

let gen ~intballast ~intchunk ~ballast ~branch ~depth ~replace_depth ~iterations =
  (* The ballast splices are empty strings at [ballast = 0], so the default
     source is byte-identical to what this generator always produced. With
     ballast, a linked list allocated from its own distinct site is anchored
     in a global for the whole run — a long-lived population whose survival
     rate an allocation profile must rank above the short-lived tree sites.

     [intballast] (likewise spliced only when nonzero) anchors a list of
     [intballast] open INTEGER arrays of [intchunk] words each: a long-lived
     population with almost no pointer fields, so a full collection spends
     its time block-copying array bodies rather than chasing edges. *)
  let ballast_type =
    if ballast = 0 then ""
    else
      "\n  BallastRec = RECORD\n    v: INTEGER;\n    next: Ballast\n  END;\n\
      \  Ballast = REF BallastRec;"
  in
  let ballast_var = if ballast = 0 then "" else "\n  anchor: Ballast;" in
  let ballast_proc =
    if ballast = 0 then ""
    else
      "\n\nPROCEDURE MkBallast(n: INTEGER): Ballast;\nVAR head, b: Ballast; i: INTEGER;\n\
       BEGIN\n  head := NIL;\n  FOR i := 1 TO n DO\n    b := NEW(Ballast);\n\
      \    b.v := i;\n    b.next := head;\n    head := b\n  END;\n  RETURN head\n\
       END MkBallast;"
  in
  let ballast_init =
    if ballast = 0 then "" else Printf.sprintf "\n  anchor := MkBallast(%d);" ballast
  in
  let intballast_type =
    if intballast = 0 then ""
    else
      "\n  Ints = REF ARRAY OF INTEGER;\n\
      \  IntTab = REF ARRAY OF Ints;"
  in
  let intballast_var = if intballast = 0 then "" else "\n  iballast: IntTab;" in
  (* Anchored through one pointer array, not a list: the copying scan
     discovers every chunk from a single object. *)
  let intballast_proc =
    if intballast = 0 then ""
    else
      "\n\nPROCEDURE MkInts(chunks: INTEGER; words: INTEGER): IntTab;\n\
       VAR t: IntTab; a: Ints; i: INTEGER;\n\
       BEGIN\n  t := NEW(IntTab, chunks);\n  FOR i := 0 TO chunks - 1 DO\n\
      \    a := NEW(Ints, words);\n    a[0] := i;\n    t[i] := a\n  END;\n\
      \  RETURN t\nEND MkInts;"
  in
  let intballast_init =
    if intballast = 0 then ""
    else Printf.sprintf "\n  iballast := MkInts(%d, %d);" intballast intchunk
  in
  Printf.sprintf
    {|
MODULE Destroy;

TYPE
  TreeRec = RECORD
    value: INTEGER;
    kids: Kids
  END;
  Tree = REF TreeRec;
  Kids = REF ARRAY OF Tree;%s

VAR
  root: Tree;
  seed, it, checksum: INTEGER;%s

PROCEDURE Rand(bound: INTEGER): INTEGER;
BEGIN
  seed := (seed * 1103515245 + 12345) MOD 1073741824;
  RETURN seed MOD bound
END Rand;

(* Bottom-up construction, the cons idiom of the paper's Lisp-derived
   benchmarks: the kids are built first, so the node's initializing
   pointer store targets the object just allocated — the pattern the
   static write-barrier elimination proves barrier-free. The k[i] store
   keeps its barrier: the recursive call may collect and promote k. *)
PROCEDURE MkTree(depth: INTEGER): Tree;
VAR t: Tree; k: Kids; i: INTEGER;
BEGIN
  k := NIL;
  IF depth > 0 THEN
    k := NEW(Kids, %d);
    FOR i := 0 TO %d DO
      k[i] := MkTree(depth - 1)
    END
  END;
  t := NEW(Tree);
  t.value := depth;
  t.kids := k;
  RETURN t
END MkTree;

PROCEDURE Count(t: Tree): INTEGER;
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

PROCEDURE Replace(): INTEGER;
VAR t: Tree; d: INTEGER; fresh: Tree;
BEGIN
  (* walk down to the replacement depth *)
  t := root;
  d := 0;
  WHILE d < %d - 1 DO
    t := t.kids[Rand(%d)];
    d := d + 1
  END;
  (* build the new subtree first, then splice it in *)
  fresh := MkTree(%d - %d);
  t.kids[Rand(%d)] := fresh;
  RETURN fresh.value
END Replace;%s

BEGIN
  seed := 12345;%s
  root := MkTree(%d);
  checksum := 0;
  FOR it := 1 TO %d DO
    checksum := checksum + Replace()
  END;
  PutText("destroy: nodes=");
  PutInt(Count(root));
  PutText(" checksum=");
  PutInt(checksum);
  PutLn()
END Destroy.
|}
    (ballast_type ^ intballast_type)
    (ballast_var ^ intballast_var)
    branch (branch - 1) replace_depth branch depth replace_depth branch
    (ballast_proc ^ intballast_proc)
    (ballast_init ^ intballast_init)
    depth iterations

let make ~branch ~depth ~replace_depth ~iterations =
  gen ~intballast:0 ~intchunk:0 ~ballast:0 ~branch ~depth ~replace_depth ~iterations

(** [make] plus a global linked list of [ballast] nodes allocated at its own
    static site before the tree work starts and kept live to the end — the
    long-lived population for lifetime-profile experiments. *)
let make_ballast ~ballast ~branch ~depth ~replace_depth ~iterations =
  gen ~intballast:0 ~intchunk:0 ~ballast ~branch ~depth ~replace_depth ~iterations

(** [make] plus [intballast] live open INTEGER arrays of [intchunk] words
    each — a blit-dominated long-lived heap, as the pressure bench uses. *)
let make_intballast ~intballast ~intchunk ~branch ~depth ~replace_depth ~iterations =
  gen ~intballast ~intchunk ~ballast:0 ~branch ~depth ~replace_depth ~iterations

(** The configuration used by the test suite and the §6.3 timing bench. *)
let src = make ~branch:3 ~depth:6 ~replace_depth:3 ~iterations:60
