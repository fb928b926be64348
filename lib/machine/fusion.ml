(** Branch-target and superinstruction-fusion metadata over UVM code.

    The threaded execution engine fuses hot adjacent instruction pairs into
    single dispatch closures. Fusion of the pair at [(i, i+1)] is legal
    only when control can never observe the seam:

    - instruction [i] must fall through unconditionally into [i+1] — it is
      not a branch, call, return or trap;
    - instruction [i] must not be a gc-point (any [Call]): a collection
      strikes with [pc] naming the call, so a call may only ever be the
      {e last} element of a superinstruction (the engine materializes the
      exact pc before executing it);
    - [i+1] must not be a branch target: a jump landing mid-pair would
      have to execute the second half alone, and the fused execution
      counters would stop meaning "this static pair ran".

    The analysis is purely static over the code array (targets are explicit
    operands of [Jmp]/[Cbr], return points follow every procedure [Call]),
    so it runs once at translation time and costs the mutator nothing. *)

(** [targets ?entries code] marks every code index control can reach other
    than by falling through from its predecessor: explicit [Jmp]/[Cbr]
    operands, the return point after every procedure call, and the given
    procedure [entries]. *)
let targets ?(entries = []) (code : Insn.t array) : bool array =
  let n = Array.length code in
  let t = Array.make n false in
  List.iter (fun e -> if e >= 0 && e < n then t.(e) <- true) entries;
  Array.iteri
    (fun i insn ->
      match insn with
      | Insn.Jmp l -> if l >= 0 && l < n then t.(l) <- true
      | Insn.Cbr (_, _, _, l) -> if l >= 0 && l < n then t.(l) <- true
      | Insn.Call (Insn.Cproc _) ->
          (* [Ret] jumps to the pushed return address, pc + 1. *)
          if i + 1 < n then t.(i + 1) <- true
      | _ -> ())
    code;
  t

(** Instructions after which control always continues at [pc + 1] by plain
    fall-through (no indirect or computed successor). [Call (Crt _)] does
    continue sequentially, but it is a gc-point and thus never a legal
    {e first} element — see {!classify_pair}. *)
let falls_through = function
  | Insn.Mov _ | Insn.Lea _ | Insn.Arith _ | Insn.Push _ | Insn.Enter _
  | Insn.Wbar _ ->
      true
  | Insn.Cbr _ | Insn.Jmp _ | Insn.Call _ | Insn.Leave | Insn.Ret _ | Insn.Trap _
    ->
      false

(** The fused pair kinds. The table ranks them by how often their pairs
    execute on the benchmark programs compiled at O1 (the takl and
    destroy workloads), counted on the switch interpreter as a share of
    all executed instructions:

    {v
    kind        takl    destroy
    mov_mov     13.1%   14.7%    loads, and a load and a store
    mov_cbr      5.7%   10.0%    a load feeding a branch: the list walk
    push_call    2.9%    6.6%    the last argument and the call
    enter_mov    4.6%    3.4%    the prologue's first load
    arith_mov    0.0%    4.2%    an add written back
    mov_push     4.0%    0.0%    a load pushed as an argument
    push_push    2.3%    0.8%    argument setup
    mov_leave    2.3%    0.0%    the epilogue
    mov_arith    0.0%    0.9%
    v}

    Since locals live in registers ({!Opt.Promote}), most of the frame
    loads and stores that made up [mov_mov] and fed [mov_cbr] are gone:
    takl's Shorterp loop is a test, two loads that fuse with each other
    and the loop test. Since blocks are laid out for fall-through
    ({!Opt.Layout}), no benchmark program contains an unconditional jump,
    so a move feeding a jump no longer fuses anywhere, and an arithmetic
    result feeding a branch never did; neither is a kind. Nor is a
    barrier followed by a move: since NIL checks that cannot fail are
    gone ({!Opt.Nonnil}), no benchmark workload executes one. *)
type pair_kind =
  | Mov_mov
  | Mov_cbr
  | Push_call
  | Enter_mov
  | Arith_mov
  | Mov_push
  | Push_push
  | Mov_leave
  | Mov_arith

let pair_name = function
  | Mov_mov -> "mov_mov"
  | Mov_cbr -> "mov_cbr"
  | Push_call -> "push_call"
  | Enter_mov -> "enter_mov"
  | Arith_mov -> "arith_mov"
  | Mov_push -> "mov_push"
  | Push_push -> "push_push"
  | Mov_leave -> "mov_leave"
  | Mov_arith -> "mov_arith"

let all_pairs =
  [ Mov_mov; Mov_cbr; Push_call; Enter_mov; Arith_mov; Mov_push; Push_push; Mov_leave; Mov_arith ]

(** Classify an adjacent pair as one of the fusible kinds. Purely shape
    matching — the caller also checks {!targets} and gc-point legality via
    {!fusible}. *)
let classify_pair (a : Insn.t) (b : Insn.t) : pair_kind option =
  match (a, b) with
  | Insn.Mov _, Insn.Mov _ -> Some Mov_mov
  | Insn.Mov _, Insn.Cbr _ -> Some Mov_cbr
  | Insn.Push _, Insn.Call _ -> Some Push_call
  | Insn.Enter _, Insn.Mov _ -> Some Enter_mov
  | Insn.Arith _, Insn.Mov _ -> Some Arith_mov
  | Insn.Mov _, Insn.Push _ -> Some Mov_push
  | Insn.Push _, Insn.Push _ -> Some Push_push
  | Insn.Mov _, Insn.Leave -> Some Mov_leave
  | Insn.Mov _, Insn.Arith _ -> Some Mov_arith
  | _ -> None

(** Fusion legality and kind for the pair starting at [i], given the
    [targets] map of the same code array. *)
let fusible (code : Insn.t array) (tgt : bool array) i : pair_kind option =
  if i + 1 >= Array.length code then None
  else if tgt.(i + 1) then None
  else if not (falls_through code.(i)) then None
  else classify_pair code.(i) code.(i + 1)
