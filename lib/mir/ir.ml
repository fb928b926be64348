(** The mid-level intermediate representation: a control-flow graph of basic
    blocks over an unbounded supply of virtual registers ("temps") plus
    explicitly addressed frame "locals".

    Every temp carries a {!kind} describing what the value means to the
    garbage collector; the optimizer must keep kinds correct as it moves and
    rewrites code — this is exactly the bookkeeping the paper adds to gcc. *)

type temp = int
type local = int
type label = int

type operand = Otemp of temp | Oimm of int

type binop = Add | Sub | Mul | Div | Mod | Min | Max

type relop = Req | Rne | Rlt | Rle | Rgt | Rge

(** What a value is, to the collector. *)
type kind =
  | Kscalar (* integers, booleans, chars *)
  | Kptr (* tidy heap pointer (possibly NIL) *)
  | Kstack (* address of a stack slot, global, or static text: never moves *)
  | Kderived of Deriv.t (* pointer arithmetic over heap pointers *)

(** Runtime (native) routines. Only the allocating ones induce gc-points.

    The allocating calls carry their static {e allocation-site id}: a
    stable index into the program's {!alloc_site} table assigned at
    lowering. The id rides inside the instruction through codegen and both
    execution engines, so the profiler can attribute every runtime
    allocation to a source location; it has no operational effect (the
    byte-size model prices every call identically) and with profiling off
    it is never read. *)
type rt_call =
  | Rt_alloc of int (* (tdesc_id) -> ptr ; fixed-size object; site id *)
  | Rt_alloc_open of int (* (tdesc_id, length) -> ptr ; open array; site id *)
  | Rt_gc_check (* loop gc-point: may trigger a collection *)
  | Rt_put_int
  | Rt_put_char
  | Rt_put_text
  | Rt_put_ln
  | Rt_halt
  | Rt_bounds_error
  | Rt_nil_error

let rt_allocates = function
  | Rt_alloc _ | Rt_alloc_open _ | Rt_gc_check -> true
  | Rt_put_int | Rt_put_char | Rt_put_text | Rt_put_ln | Rt_halt | Rt_bounds_error
  | Rt_nil_error -> false

let rt_name = function
  | Rt_alloc _ -> "rt_alloc"
  | Rt_alloc_open _ -> "rt_alloc_open"
  | Rt_gc_check -> "rt_gc_check"
  | Rt_put_int -> "rt_put_int"
  | Rt_put_char -> "rt_put_char"
  | Rt_put_text -> "rt_put_text"
  | Rt_put_ln -> "rt_put_ln"
  | Rt_halt -> "rt_halt"
  | Rt_bounds_error -> "rt_bounds_error"
  | Rt_nil_error -> "rt_nil_error"

type callee = Cuser of int (* function id *) | Crt of rt_call

type instr =
  | Mov of temp * operand
  | Bin of binop * temp * operand * operand
  | Neg of temp * operand
  | Abs of temp * operand
  | Setrel of relop * temp * operand * operand (* temp := a REL b, 0/1 *)
  | Ld_local of temp * local * int (* temp := slot word at static offset *)
  | St_local of local * int * operand
  | Ld_global of temp * int * int
  | St_global of int * int * operand
  | Lda_local of temp * local * int (* temp := &slot + disp words (Kstack) *)
  | Lda_global of temp * int * int
  | Lda_text of temp * int (* address of static text literal *)
  | Load of temp * operand * int (* temp := M[addr + disp] *)
  | Store of operand * int * operand (* M[addr + disp] := value *)
  | Store_nb of operand * int * operand
    (* heap store whose write barrier has been statically eliminated: the
       target object is provably fresh (allocated in this procedure with
       no intervening gc-point). The one Wbar serves two collectors, and
       freshness discharges both at once: generationally the object is
       still nursery-resident, so the store cannot create an old→young
       reference; incrementally the object is still white (fresh objects
       are allocated white and slices run only at gc-points), so the
       store cannot create an unrecorded black→white edge. Produced only
       by {!Opt.Barrier_elim}; identical to [Store] in every other
       respect. *)
  | Call of temp option * callee * operand list

type term =
  | Jmp of label
  | Cjmp of relop * operand * operand * label * label (* then/else targets *)
  | Ret of operand option
  | Unreachable (* after a no-return runtime call *)
  | Trap of string
    (* stops the run with a guest error; only {!Opt.Nonnil}'s audit mode
       emits one, in place of the error path of a check it proved dead *)

type block = { mutable instrs : instr list; mutable term : term }

(** Scalar-slot classification of a local (what the slot holds). *)
type slot_kind =
  | Sscalar
  | Sptr (* tidy pointer slot: appears in the stack-pointer tables *)
  | Saddr (* VAR-param slot: holds an address described by the CALLER *)
  | Sderived of Deriv.t (* WITH alias over a heap place, reduced pointer, … *)
  | Sambig of ambig
    (* ambiguously derived slot: the actual derivation is selected at run
       time by the path variable (paper §4) *)
  | Saggregate of int list (* embedded record/array; pointer offsets inside *)

and ambig = { path_local : int; cases : (int * Deriv.t) list }

type local_info = {
  l_name : string;
  l_size : int; (* words; 0 once {!Opt.Promote} has moved the local to a temp *)
  mutable l_slot : slot_kind; (* alias slots are classified at the binding site *)
  l_user : bool; (* user-declared (preferred as derivation base) *)
  mutable l_addr_taken : bool; (* someone takes its address: must stay in frame *)
  mutable l_stores : int; (* static count of stores (stability for bases) *)
}

type func = {
  fid : int;
  fname : string;
  params : local list; (* in declaration order; always locals 0..n-1 *)
  nparams : int;
  ret : bool; (* returns a value *)
  ret_ptr : bool; (* returned value is a pointer *)
  mutable locals : local_info array;
  mutable blocks : block array; (* index = label; entry = 0 *)
  mutable temp_kinds : kind array; (* index = temp *)
  mutable ntemps : int;
}

type global_info = {
  g_name : string;
  g_size : int;
  g_ptrs : int list; (* pointer offsets within the global, for roots *)
  mutable g_addr_taken : bool; (* some procedure takes its address *)
}

(** A static allocation site: one [NEW] in the source, identified by the
    procedure it lowers in and its source position. Site ids are dense
    (index = id) and stable across optimization — passes may move or
    delete an allocating call but never renumber it. *)
type alloc_site = {
  as_id : int;
  as_proc : string; (* enclosing procedure name *)
  as_line : int;
  as_col : int;
  as_tdesc : int; (* type descriptor allocated here *)
  as_open : bool; (* open-array (NEW with length) site *)
}

type program = {
  pname : string;
  globals : global_info array;
  texts : string array; (* static text literals *)
  tdescs : Rt.Typedesc.t array;
  funcs : func array; (* index = fid *)
  main_fid : int;
  alloc_sites : alloc_site array; (* index = site id *)
}

(* ------------------------------------------------------------------ *)
(* Accessors and helpers                                               *)
(* ------------------------------------------------------------------ *)

let temp_kind f t =
  if t < 0 || t >= f.ntemps then invalid_arg "Ir.temp_kind" else f.temp_kinds.(t)

let set_temp_kind f t k =
  if t < 0 || t >= f.ntemps then invalid_arg "Ir.set_temp_kind";
  f.temp_kinds.(t) <- k

let fresh_temp f k =
  let t = f.ntemps in
  if t >= Array.length f.temp_kinds then begin
    let bigger = Array.make (max 8 (2 * Array.length f.temp_kinds)) Kscalar in
    Array.blit f.temp_kinds 0 bigger 0 (Array.length f.temp_kinds);
    f.temp_kinds <- bigger
  end;
  f.temp_kinds.(t) <- k;
  f.ntemps <- t + 1;
  t

(** [is_temp t o]: operand [o] is temp [t]. *)
let is_temp t = function Otemp t' -> t' = t | Oimm _ -> false

(** Temps read by an instruction. *)
let instr_uses = function
  | Mov (_, s) | Neg (_, s) | Abs (_, s) -> [ s ]
  | Bin (_, _, a, b) | Setrel (_, _, a, b) -> [ a; b ]
  | Ld_local _ | Ld_global _ | Lda_local _ | Lda_global _ | Lda_text _ -> []
  | St_local (_, _, s) | St_global (_, _, s) -> [ s ]
  | Load (_, a, _) -> [ a ]
  | Store (a, _, v) | Store_nb (a, _, v) -> [ a; v ]
  | Call (_, _, args) -> args

let instr_def = function
  | Mov (d, _) | Bin (_, d, _, _) | Neg (d, _) | Abs (d, _) | Setrel (_, d, _, _)
  | Ld_local (d, _, _) | Ld_global (d, _, _) | Lda_local (d, _, _)
  | Lda_global (d, _, _) | Lda_text (d, _) | Load (d, _, _) -> Some d
  | Store _ | Store_nb _ | St_local _ | St_global _ -> None
  | Call (d, _, _) -> d

let term_uses = function
  | Jmp _ | Unreachable | Trap _ -> []
  | Cjmp (_, a, b, _, _) -> [ a; b ]
  | Ret (Some o) -> [ o ]
  | Ret None -> []

(** The relation that holds exactly when [r] does not. *)
let negate_relop = function
  | Req -> Rne
  | Rne -> Req
  | Rlt -> Rge
  | Rle -> Rgt
  | Rgt -> Rle
  | Rge -> Rlt

let term_succs = function
  | Jmp l -> [ l ]
  | Cjmp (_, _, _, t, e) -> [ t; e ]
  | Ret _ | Unreachable | Trap _ -> []

(** Locals read (as slots) by an instruction; [Lda_local] counts as an
    address-taken reference, returned separately. *)
let instr_local_reads = function
  | Ld_local (_, l, _) -> [ l ]
  | Mov _ | Bin _ | Neg _ | Abs _ | Setrel _ | Ld_global _ | St_local _ | St_global _
  | Lda_local _ | Lda_global _ | Lda_text _ | Load _ | Store _ | Store_nb _ | Call _ -> []

(** Does this call instruction constitute a gc-point?  All calls to user
    procedures do (unless the optional never-allocates analysis proves
    otherwise — see {!Opt.Noalloc}); runtime calls only if they may allocate
    or trigger a collection (paper §5.3). *)
let call_is_gcpoint ?(noalloc_funcs = fun (_ : int) -> false) callee =
  match callee with
  | Cuser fid -> not (noalloc_funcs fid)
  | Crt rc -> rt_allocates rc

(** May [o] hold a heap pointer, tidy or derived? *)
let is_pointer f = function
  | Otemp t -> ( match temp_kind f t with Kptr | Kderived _ -> true | Kscalar | Kstack -> false)
  | Oimm _ -> false

(** The derivation [o] contributes as a base: itself, when it may hold a
    heap pointer. *)
let deriv_of f (o : operand) =
  match o with
  | Otemp t when is_pointer f o -> Deriv.of_base (Deriv.Btemp t)
  | Otemp _ | Oimm _ -> Deriv.empty

(* ------------------------------------------------------------------ *)
(* Memory effects                                                      *)
(* ------------------------------------------------------------------ *)

(** A location a load reads: the word at an address plus a displacement
    ([Load]), a word of a local's frame slot, or a word of a global. *)
type loc = Lmem of operand * int | Lslot of local * int | Lglobal of int * int

(** The location a load reads; [None] for any other instruction. *)
let loc_read = function
  | Ld_local (_, l, o) -> Some (Lslot (l, o))
  | Ld_global (_, g, o) -> Some (Lglobal (g, o))
  | Load (_, a, o) -> Some (Lmem (a, o))
  | Mov _ | Bin _ | Neg _ | Abs _ | Setrel _ | St_local _ | St_global _ | Lda_local _
  | Lda_global _ | Lda_text _ | Store _ | Store_nb _ | Call _ ->
      None

(* Where an address may point, by its kind: a tidy pointer only into the
   heap, a [Kstack] address only at a frame slot, a global or static text.
   A derived address may point anywhere: a VAR parameter is [Kderived]
   and may hold the address of a global or of a caller's slot. *)
let heap_only f = function
  | Otemp t -> ( match temp_kind f t with Kptr -> true | Kscalar | Kstack | Kderived _ -> false)
  | Oimm _ -> false

let stack_only f = function
  | Otemp t -> ( match temp_kind f t with Kstack -> true | Kscalar | Kptr | Kderived _ -> false)
  | Oimm _ -> false

(** May executing [i] write anything? [false] exactly when
    {!may_write} is [false] for every location. *)
let writes = function
  | St_local _ | St_global _ | Store _ | Store_nb _ -> true
  | Call (_, c, _) -> call_is_gcpoint c
  | Mov _ | Bin _ | Neg _ | Abs _ | Setrel _ | Ld_local _ | Ld_global _ | Lda_local _
  | Lda_global _ | Lda_text _ | Load _ ->
      false

(** The alias rules: may executing [i] change what location [l] holds?
    Every optimizer pass that keeps a loaded value, moves a load or trusts
    a slot's contents asks this, and nothing else decides it.
    - A store by name writes its own word. Reached through its address, a
      local or global whose address is taken ([l_addr_taken],
      [g_addr_taken]) may also be any word a [Load] reads, unless that
      [Load]'s address is a tidy pointer.
    - A store through an address writes what a [Load] may read, unless one
      address is a tidy pointer and the other a [Kstack] address. Unless
      its own address is a tidy pointer, it may write any local or global
      whose address is taken.
    - A call that is a gc-point ({!call_is_gcpoint}) may write the heap,
      every global and every local whose address is taken. A runtime
      routine that cannot collect writes nothing a load can read. An
      allocating routine changes no value a load could have read (a
      collection moves objects without changing any), but counting it
      as a write keeps passes from holding loaded values across it, which
      would cost a callee-saved register and a table entry at the
      gc-point, and on the corpus costs more instructions than it saves. *)
let may_write (prog : program) (f : func) (i : instr) (l : loc) : bool =
  let addressed = function
    | Lmem _ -> true
    | Lslot (x, _) -> f.locals.(x).l_addr_taken
    | Lglobal (g, _) -> prog.globals.(g).g_addr_taken
  in
  match (i, l) with
  | St_local (x, o, _), Lslot (x', o') -> x = x' && o = o'
  | St_global (g, o, _), Lglobal (g', o') -> g = g' && o = o'
  | St_local (x, _, _), Lmem (a, _) -> f.locals.(x).l_addr_taken && not (heap_only f a)
  | St_global (g, _, _), Lmem (a, _) -> prog.globals.(g).g_addr_taken && not (heap_only f a)
  | (Store (a, _, _) | Store_nb (a, _, _)), Lmem (a', _) ->
      not ((heap_only f a && stack_only f a') || (stack_only f a && heap_only f a'))
  | (Store (a, _, _) | Store_nb (a, _, _)), (Lslot _ | Lglobal _) ->
      (not (heap_only f a)) && addressed l
  | Call (_, c, _), Lglobal _ -> call_is_gcpoint c
  | Call (_, c, _), (Lmem _ | Lslot _) -> call_is_gcpoint c && addressed l
  | (St_local _ | St_global _), (Lslot _ | Lglobal _) -> false
  | ( ( Mov _ | Bin _ | Neg _ | Abs _ | Setrel _ | Ld_local _ | Ld_global _ | Lda_local _
      | Lda_global _ | Lda_text _ | Load _ ),
      _ ) ->
      false

(** Does this store need a write barrier? Only if the stored value may be
    a tidy heap pointer (or derived from one): NIL and other immediates,
    scalars and never-moving stack or static addresses cannot create an
    old→young reference. A store through a [Kstack] address writes a
    frame or global word, which the minor collection treats as a root, so
    it needs none either. The same barrier is the incremental collector's
    insertion barrier (shade the stored-to slot), and this predicate is
    sound for that reading too: frame and global words are roots the
    final flip rescans, and a NIL or scalar store cannot create a
    black→white edge. This is why the incremental design is an insertion
    barrier rather than a deletion (snapshot-at-the-beginning) barrier:
    NIL stores carry no barrier here, so an overwritten-pointer log would
    have a coverage hole, while the insertion reading only ever needs the
    stores this predicate keeps. Instruction selection emits a barrier
    exactly where this holds, and {!Opt.Barrier_elim} counts and elides
    only such stores. *)
let store_needs_barrier (f : func) (a : operand) (v : operand) =
  (not (stack_only f a)) && is_pointer f v

(** Rewrite the operands an instruction reads (definitions untouched). *)
let map_instr_uses (g : operand -> operand) (i : instr) : instr =
  match i with
  | Mov (d, s) -> Mov (d, g s)
  | Bin (op, d, a, b) -> Bin (op, d, g a, g b)
  | Neg (d, s) -> Neg (d, g s)
  | Abs (d, s) -> Abs (d, g s)
  | Setrel (r, d, a, b) -> Setrel (r, d, g a, g b)
  | Ld_local _ | Ld_global _ | Lda_local _ | Lda_global _ | Lda_text _ -> i
  | St_local (l, o, s) -> St_local (l, o, g s)
  | St_global (gl, o, s) -> St_global (gl, o, g s)
  | Load (d, a, o) -> Load (d, g a, o)
  | Store (a, o, v) -> Store (g a, o, g v)
  | Store_nb (a, o, v) -> Store_nb (g a, o, g v)
  | Call (d, c, args) -> Call (d, c, List.map g args)

(** Rename the temp an instruction defines (operands untouched). *)
let map_instr_def (g : temp -> temp) (i : instr) : instr =
  match i with
  | Mov (d, s) -> Mov (g d, s)
  | Bin (op, d, a, b) -> Bin (op, g d, a, b)
  | Neg (d, s) -> Neg (g d, s)
  | Abs (d, s) -> Abs (g d, s)
  | Setrel (r, d, a, b) -> Setrel (r, g d, a, b)
  | Ld_local (d, l, o) -> Ld_local (g d, l, o)
  | Ld_global (d, gl, o) -> Ld_global (g d, gl, o)
  | Lda_local (d, l, o) -> Lda_local (g d, l, o)
  | Lda_global (d, gl, o) -> Lda_global (g d, gl, o)
  | Lda_text (d, x) -> Lda_text (g d, x)
  | Load (d, a, o) -> Load (g d, a, o)
  | Call (Some d, c, args) -> Call (Some (g d), c, args)
  | St_local _ | St_global _ | Store _ | Store_nb _ | Call (None, _, _) -> i

(** Rewrite the labels a terminator jumps to; an unchanged terminator is
    returned as is, like {!map_term_uses}. *)
let map_term_targets (g : label -> label) (t : term) : term =
  match t with
  | Jmp l ->
      let l' = g l in
      if l' = l then t else Jmp l'
  | Cjmp (r, a, b, tl, fl) ->
      let tl' = g tl and fl' = g fl in
      if tl' = tl && fl' = fl then t else Cjmp (r, a, b, tl', fl')
  | Ret _ | Unreachable | Trap _ -> t

(** How many times each temp is read, over every block. *)
let use_counts (f : func) : int array =
  let counts = Array.make f.ntemps 0 in
  let use = function Otemp t -> counts.(t) <- counts.(t) + 1 | Oimm _ -> () in
  Array.iter
    (fun b ->
      List.iter (fun i -> List.iter use (instr_uses i)) b.instrs;
      List.iter use (term_uses b.term))
    f.blocks;
  counts

(** Rewrite the operands a terminator reads; an unchanged terminator is
    returned as is, so a {!Cfg.analysis} snapshot outlives the rewrite. *)
let map_term_uses (g : operand -> operand) (t : term) : term =
  match t with
  | Jmp _ | Unreachable | Trap _ -> t
  | Cjmp (r, a, b, tl, fl) ->
      let a' = g a and b' = g b in
      if a' == a && b' == b then t else Cjmp (r, a', b', tl, fl)
  | Ret (Some o) ->
      let o' = g o in
      if o' == o then t else Ret (Some o')
  | Ret None -> t
