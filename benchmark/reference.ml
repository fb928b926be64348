(** Expected program outputs, computed without the compiler under test.

    Each model restates what a benchmark program computes in plain OCaml
    arithmetic, so a wrong answer from the compiler, the VM or a collector
    cannot also corrupt the reference it is checked against. *)

(** Takeuchi's function; takl computes it on list lengths ([Mas] returns
    [z] unless [y] is shorter than [x], and recurses on the tails). *)
let rec tak x y z =
  if not (y < x) then z else tak (tak (x - 1) y z) (tak (y - 1) z x) (tak (z - 1) x y)

(** [Takl_src.make]: every repetition's result has length
    [tak n1 n2 n3], and the checksum adds the ballast list's length. *)
let takl ~n1 ~n2 ~n3 ~repeats ~ballast =
  let len = tak n1 n2 n3 in
  Printf.sprintf "takl: length=%d checksum=%d\n" len ((repeats * len) + ballast)

let rec pow b e = if e = 0 then 1 else b * pow b (e - 1)

(** Nodes of a complete tree of the given branching factor and depth. *)
let tree_nodes ~branch ~depth = (pow branch (depth + 1) - 1) / (branch - 1)

(** [Destroy_src.make] and its ballast variants: replacements keep the
    tree complete, and each one adds the height of the fresh subtree to
    the checksum. The ballast lives beside the tree and is not counted. *)
let destroy ~branch ~depth ~replace_depth ~iterations =
  Printf.sprintf "destroy: nodes=%d checksum=%d\n"
    (tree_nodes ~branch ~depth)
    (iterations * (depth - replace_depth))

(** The wide-heap program: the live tree's node count, and the sum of the
    first element written into each short-lived array (1..arrays). *)
let wide_heap ~branch ~depth ~arrays =
  Printf.sprintf "wide-heap: nodes=%d sum=%d\n" (tree_nodes ~branch ~depth)
    (arrays * (arrays + 1) / 2)
