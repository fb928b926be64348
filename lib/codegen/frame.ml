(** Frame layout of compiled procedures.

    The stack grows downward. After the prologue ([Enter]) of a procedure
    with frame size S and k callee-save slots:

    {v
      FP+2+i : incoming argument word i   (the caller's outgoing AP region)
      FP+1   : return address
      FP     : saved FP (FP points here)
      FP-1-j : callee-save slot j
      ...    : locals (each local occupies contiguous words, word 0 lowest)
      ...    : spill slots
      SP = FP - S
    v}

    Incoming parameter slots are read-only: they are described by the
    caller's gc tables for the duration of the call, so the callee never
    lists them in its own stack-pointer tables. A local that
    {!Opt.Promote} moved to a temp has no words, so it takes no frame
    word. *)

type t = {
  frame_size : int; (* words below the saved-FP slot *)
  nsaves : int;
  save_offs : (int * int) list; (* (reg, FP-relative offset) *)
  local_base : int array; (* FP-relative offset of word 0 of each local *)
  spill_base : int; (* FP-relative offset of spill slot 0 *)
  nparams : int;
}

let layout ~(locals : Mir.Ir.local_info array) ~nparams ~(saves : int list) ~nspills : t =
  let nsaves = List.length saves in
  let save_offs = List.mapi (fun i r -> (r, -1 - i)) saves in
  let local_base = Array.make (Array.length locals) 0 in
  (* Parameters live above the frame, at FP+2, one word each. *)
  for i = 0 to nparams - 1 do
    local_base.(i) <- 2 + i
  done;
  let next_free = ref (-nsaves) in
  for l = nparams to Array.length locals - 1 do
    let sz = locals.(l).Mir.Ir.l_size in
    next_free := !next_free - sz;
    local_base.(l) <- !next_free
  done;
  let spill_base = !next_free - nspills in
  (* The frame covers FP-1 down to FP+spill_base inclusive. *)
  let frame_size = -spill_base in
  {
    frame_size;
    nsaves;
    save_offs;
    local_base;
    spill_base;
    nparams;
  }

let local_off t l = t.local_base.(l)
let spill_off t s = t.spill_base + s
