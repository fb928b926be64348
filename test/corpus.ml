(* The benchmark's compile corpus: the paper's Table 1 programs plus ambig
   and indirect, the two that exercise ambiguous and indirect derivations. *)

let programs =
  let open Programs in
  [
    ("typereg", Typereg_src.src);
    ("FieldList", Fieldlist_src.src);
    ("takl", Takl_src.src);
    ("destroy", Destroy_src.src);
    ("ambig", Ambig_src.src);
    ("indirect", Indirect_src.src);
  ]
