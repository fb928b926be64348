(* Classic small algorithms, each with its expected output and a small
   heap. test_toys runs them under its configuration matrix;
   test_threaded runs them under every collector on both engines. *)

type t = {
  name : string;
  src : string;
  expected : string;
  small : int;
      (** A heap at which the toy collects at least once under the
          precise, generational and incremental collectors, at O0 and O1,
          without exhausting it; or, for a toy that cannot, a heap it
          runs in. *)
  never_collects : string option;
      (** Why no heap makes the toy collect under all three collectors
          without exhausting it; [None] when [small] does. *)
}

(** The label of a row that runs a program at its small heap: one that
    cannot collect ([never] = [Some why]) says so, and why. *)
let small_row ~never tag =
  match never with None -> tag | Some why -> Printf.sprintf "%s (never collects: %s)" tag why

(* Sieve of Eratosthenes over an open boolean array. *)
let sieve =
  "MODULE Sieve;\n\
   TYPE Bits = REF ARRAY OF BOOLEAN;\n\
   VAR isComposite: Bits; i, j, count: INTEGER;\n\
   BEGIN\n\
   isComposite := NEW(Bits, 50);\n\
   count := 0;\n\
   FOR i := 2 TO 49 DO\n\
   \  IF NOT isComposite[i] THEN\n\
   \    count := count + 1;\n\
   \    j := i * i;\n\
   \    WHILE j < 50 DO isComposite[j] := TRUE; j := j + i END\n\
   \  END\n\
   END;\n\
   PutInt(count); PutLn()\n\
   END Sieve.\n"

(* N-queens with a heap-allocated board, counting solutions. *)
let queens =
  "MODULE Queens;\n\
   TYPE Board = REF ARRAY OF INTEGER;\n\
   VAR solutions: INTEGER; board: Board;\n\
   PROCEDURE Safe(row, col: INTEGER): BOOLEAN;\n\
   VAR r: INTEGER;\n\
   BEGIN\n\
   FOR r := 0 TO row - 1 DO\n\
   \  IF board[r] = col THEN RETURN FALSE END;\n\
   \  IF ABS(board[r] - col) = row - r THEN RETURN FALSE END\n\
   END;\n\
   RETURN TRUE\n\
   END Safe;\n\
   PROCEDURE Place(row, n: INTEGER);\n\
   VAR c: INTEGER;\n\
   BEGIN\n\
   IF row = n THEN solutions := solutions + 1; RETURN END;\n\
   FOR c := 0 TO n - 1 DO\n\
   \  IF Safe(row, c) THEN board[row] := c; Place(row + 1, n) END\n\
   END\n\
   END Place;\n\
   BEGIN\n\
   board := NEW(Board, 6);\n\
   solutions := 0;\n\
   Place(0, 6);\n\
   PutInt(solutions); PutLn()\n\
   END Queens.\n"

(* Binary search tree: insert a shuffled sequence, verify the in-order
   traversal is sorted and complete; allocation-heavy. *)
let bst =
  "MODULE Bst;\n\
   TYPE NodeRec = RECORD key: INTEGER; left, right: Tree END;\n\
   Tree = REF NodeRec;\n\
   VAR root: Tree; i, prev, ok, count: INTEGER;\n\
   PROCEDURE Insert(t: Tree; key: INTEGER): Tree;\n\
   VAR n: Tree;\n\
   BEGIN\n\
   IF t = NIL THEN\n\
   \  n := NEW(Tree); n.key := key; RETURN n\n\
   END;\n\
   IF key < t.key THEN t.left := Insert(t.left, key)\n\
   ELSIF key > t.key THEN t.right := Insert(t.right, key)\n\
   END;\n\
   RETURN t\n\
   END Insert;\n\
   PROCEDURE Walk(t: Tree);\n\
   BEGIN\n\
   IF t = NIL THEN RETURN END;\n\
   Walk(t.left);\n\
   IF t.key <= prev THEN ok := 0 END;\n\
   prev := t.key;\n\
   count := count + 1;\n\
   Walk(t.right)\n\
   END Walk;\n\
   BEGIN\n\
   root := NIL;\n\
   FOR i := 1 TO 100 DO\n\
   \  root := Insert(root, (i * 37) MOD 101)\n\
   END;\n\
   prev := -1; ok := 1; count := 0;\n\
   Walk(root);\n\
   PutInt(ok); PutChar(' '); PutInt(count); PutLn()\n\
   END Bst.\n"

(* String manipulation over TEXT: reverse and palindrome check. *)
let strings =
  "MODULE Strings;\n\
   VAR t, r: TEXT; i, n: INTEGER; pal: BOOLEAN;\n\
   PROCEDURE Reverse(s: TEXT): TEXT;\n\
   VAR out: TEXT; k, len: INTEGER;\n\
   BEGIN\n\
   len := NUMBER(s);\n\
   out := NEW(TEXT, len);\n\
   FOR k := 0 TO len - 1 DO out[k] := s[len - 1 - k] END;\n\
   RETURN out\n\
   END Reverse;\n\
   PROCEDURE Equal(a, b: TEXT): BOOLEAN;\n\
   VAR k: INTEGER;\n\
   BEGIN\n\
   IF NUMBER(a) # NUMBER(b) THEN RETURN FALSE END;\n\
   FOR k := 0 TO NUMBER(a) - 1 DO\n\
   \  IF a[k] # b[k] THEN RETURN FALSE END\n\
   END;\n\
   RETURN TRUE\n\
   END Equal;\n\
   BEGIN\n\
   t := \"stressed\";\n\
   r := Reverse(t);\n\
   PutText(r); PutChar(' ');\n\
   pal := Equal(\"racecar\", Reverse(\"racecar\"));\n\
   IF pal THEN PutText(\"yes\") ELSE PutText(\"no\") END;\n\
   PutLn();\n\
   (* churn: many transient reversals *)\n\
   n := 0;\n\
   FOR i := 1 TO 60 DO\n\
   \  n := n + NUMBER(Reverse(\"abcdefghij\"))\n\
   END;\n\
   PutInt(n); PutLn()\n\
   END Strings.\n"

(* 2-D matrix multiply through REF ARRAY OF REF ARRAY (rows are separate
   heap objects — pointer-rich data). *)
let matmul =
  "MODULE Matmul;\n\
   TYPE Row = REF ARRAY OF INTEGER; Mat = REF ARRAY OF Row;\n\
   VAR a, b, c: Mat; i, j, k, n, sum: INTEGER;\n\
   PROCEDURE MkMat(n: INTEGER): Mat;\n\
   VAR m: Mat; i: INTEGER;\n\
   BEGIN\n\
   m := NEW(Mat, n);\n\
   FOR i := 0 TO n - 1 DO m[i] := NEW(Row, n) END;\n\
   RETURN m\n\
   END MkMat;\n\
   BEGIN\n\
   n := 6;\n\
   a := MkMat(n); b := MkMat(n); c := MkMat(n);\n\
   FOR i := 0 TO n - 1 DO\n\
   \  FOR j := 0 TO n - 1 DO\n\
   \    a[i][j] := i + j;\n\
   \    b[i][j] := i - j\n\
   \  END\n\
   END;\n\
   FOR i := 0 TO n - 1 DO\n\
   \  FOR j := 0 TO n - 1 DO\n\
   \    c[i][j] := 0;\n\
   \    FOR k := 0 TO n - 1 DO\n\
   \      c[i][j] := c[i][j] + a[i][k] * b[k][j]\n\
   \    END\n\
   \  END\n\
   END;\n\
   sum := 0;\n\
   FOR i := 0 TO n - 1 DO\n\
   \  FOR j := 0 TO n - 1 DO sum := sum + c[i][j] END\n\
   END;\n\
   PutInt(sum); PutLn()\n\
   END Matmul.\n"

(* Sum over i, j, k of (i+k)(k-j) for n = 6. *)
let matmul_expected =
  let n = 6 in
  let sum = ref 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      for k = 0 to n - 1 do
        sum := !sum + ((i + k) * (k - j))
      done
    done
  done;
  Printf.sprintf "%d\n" !sum

(* Ackermann (small): deep recursion, no allocation in the hot path;
   collections triggered only by the surrounding churn. *)
let ack =
  "MODULE Ack;\n\
   TYPE L = REF RECORD v: INTEGER END;\n\
   VAR r, i: INTEGER; junk: L;\n\
   PROCEDURE A(m, n: INTEGER): INTEGER;\n\
   BEGIN\n\
   IF m = 0 THEN RETURN n + 1 END;\n\
   IF n = 0 THEN RETURN A(m - 1, 1) END;\n\
   RETURN A(m - 1, A(m, n - 1))\n\
   END A;\n\
   BEGIN\n\
   FOR i := 1 TO 30 DO junk := NEW(L); junk.v := i END;\n\
   r := A(2, 3);\n\
   PutInt(r); PutLn()\n\
   END Ack.\n"

let all =
  let one = Some "one allocation, live to the end" in
  [
    { name = "sieve"; src = sieve; expected = "15\n"; small = 200; never_collects = one };
    { name = "n-queens"; src = queens; expected = "4\n"; small = 150; never_collects = one };
    {
      name = "binary search tree";
      src = bst;
      expected = "1 100\n";
      small = 600;
      never_collects = Some "every node stays reachable from the root";
    };
    { name = "strings"; src = strings; expected = "desserts yes\n600\n"; small = 200; never_collects = None };
    {
      name = "matrix multiply";
      src = matmul;
      expected = matmul_expected;
      small = 300;
      never_collects = Some "its 21 arrays all stay reachable";
    };
    { name = "ackermann"; src = ack; expected = "9\n"; small = 50; never_collects = None };
  ]
