(** The threaded-code execution engine.

    The reference interpreter ({!Interp.step}) pays a boxed [Insn.t] match
    plus nested operand-mode matches on every instruction executed. In the
    spirit of the paper's thesis — move run-time work to static translation
    (all of the collector's knowledge lives in compile-time tables; §6
    measures zero executed-code overhead) — this engine performs all of
    that decoding {e once}, at image load: every instruction is compiled to
    an OCaml closure specialized on its opcode {e and its operand
    addressing modes} (e.g. [Mov (Reg d, Reg s)] becomes a two-array-load
    closure with no match at all), and execution is a tight loop indexing
    the closure array by pc.

    On top of the closure array, a static branch-target analysis
    ({!Machine.Fusion}) enables {e superinstruction fusion}: hot adjacent
    pairs — a load feeding a conditional branch (the list-walk idiom),
    move chains, pushes feeding pushes and calls, and the rest of
    {!Machine.Fusion.pair_kind} — collapse into a single closure that
    advances pc by 2, saving a dispatch; the hottest shapes are fully
    hand-inlined so the pair costs one closure body, not two chained ones.
    Fusion is forbidden across gc-points — a [Call] may only terminate a
    pair, and the exact intermediate pc is always materialized before any
    second half that can fault or collect — and into branch targets, so the
    collector (and any fault) observes exactly the paper-faithful pcs and
    the gc tables are byte-for-byte untouched. The standalone closure at
    the second index is kept, so a return address or branch landing there
    executes unfused.

    Observable semantics are identical to the reference engine by
    construction and enforced by the differential suite
    ([test/test_threaded.ml]): same output, same instruction counts, same
    collection counts, same final heap image. The only tolerated
    divergence: a run that dies of fuel exhaustion may execute one extra
    instruction when the budget boundary splits a fused pair.

    The engine is a pure runtime switch ([mmrun --no-threaded]); the
    [step]-based interpreter remains the reference semantics. *)

module I = Machine.Insn
module F = Machine.Fusion
module T = Telemetry
open Interp

type op = Interp.t -> unit

(* Translation-time telemetry: one-time costs, recorded when the engine for
   an image is built (gated on the master switch like every other probe). *)
let c_translate_ns = T.Metrics.counter "vm.translate_ns"
let c_closures = T.Metrics.counter "vm.closures"
let c_fused = T.Metrics.counter "vm.fused_pairs"
let c_fused_execs = T.Metrics.counter "vm.fused_execs"

let c_fuse_kind =
  List.map (fun k -> (k, T.Metrics.counter ("vm.fuse." ^ F.pair_name k))) F.all_pairs

(** Counter suffixes of the per-kind fusion counters ([vm.fuse.<name>]),
    for reporting tools. *)
let fuse_kind_names = List.map F.pair_name F.all_pairs

let sp_r = Machine.Reg.sp
let fp_r = Machine.Reg.fp

(* ------------------------------------------------------------------ *)
(* Operand compilation                                                 *)
(* ------------------------------------------------------------------ *)

(* Each operand mode becomes a dedicated closure; the mode match runs once
   here, never per step. Bounds behaviour is [Interp.read]/[write]'s. *)

let compile_eval (o : I.operand) : Interp.t -> int =
  match o with
  | I.Reg r -> fun t -> t.regs.(r)
  | I.Imm n -> fun _ -> n
  | I.Mem (r, d) -> fun t -> read t (t.regs.(r) + d)
  | I.Mem2 (r1, r2, d) -> fun t -> read t (t.regs.(r1) + t.regs.(r2) + d)
  | I.Defer (r, d1, d2) -> fun t -> read t (read t (t.regs.(r) + d1) + d2)
  | I.Abs a -> fun t -> read t a

let compile_store (o : I.operand) : Interp.t -> int -> unit =
  match o with
  | I.Reg r -> fun t v -> t.regs.(r) <- v
  | I.Imm _ -> fun _ _ -> Vm_error.fail "store to immediate"
  | I.Mem (r, d) -> fun t v -> write t (t.regs.(r) + d) v
  | I.Mem2 (r1, r2, d) -> fun t v -> write t (t.regs.(r1) + t.regs.(r2) + d) v
  | I.Defer (r, d1, d2) -> fun t v -> write t (read t (t.regs.(r) + d1) + d2) v
  | I.Abs a -> fun t v -> write t a v

let compile_addr (o : I.operand) : Interp.t -> int =
  match o with
  | I.Mem (r, d) -> fun t -> t.regs.(r) + d
  | I.Mem2 (r1, r2, d) -> fun t -> t.regs.(r1) + t.regs.(r2) + d
  | I.Defer (r, d1, d2) -> fun t -> read t (t.regs.(r) + d1) + d2
  | I.Abs a -> fun _ -> a
  | I.Reg _ | I.Imm _ ->
      fun _ -> Vm_error.fail "effective address of a non-memory operand"

(* ------------------------------------------------------------------ *)
(* Instruction compilation                                             *)
(* ------------------------------------------------------------------ *)

(* Evaluation-order note: the reference engine evaluates [apply_aop op
   (eval a) (eval b)] and [relop_eval r (eval a) (eval b)] with OCaml's
   right-to-left argument order, so a faulting [b] operand surfaces before
   a faulting [a]. The compiled closures preserve that order. *)

let compile_relop (r : I.relop) : int -> int -> bool =
  match r with
  | I.Req -> fun a b -> a = b
  | I.Rne -> fun a b -> a <> b
  | I.Rlt -> fun a b -> a < b
  | I.Rle -> fun a b -> a <= b
  | I.Rgt -> fun a b -> a > b
  | I.Rge -> fun a b -> a >= b

(* Specialized arithmetic: the aop match runs at translation; comparisons
   are monomorphic on int. *)
let compile_arith (op : I.aop) fd fa fb next : op =
  match op with
  | I.Add ->
      fun t ->
        t.icount <- t.icount + 1;
        let b = fb t in
        let a = fa t in
        fd t (a + b);
        t.pc <- next
  | I.Sub ->
      fun t ->
        t.icount <- t.icount + 1;
        let b = fb t in
        let a = fa t in
        fd t (a - b);
        t.pc <- next
  | I.Mul ->
      fun t ->
        t.icount <- t.icount + 1;
        let b = fb t in
        let a = fa t in
        fd t (a * b);
        t.pc <- next
  | I.Div ->
      fun t ->
        t.icount <- t.icount + 1;
        let b = fb t in
        let a = fa t in
        fd t (m3_div a b);
        t.pc <- next
  | I.Mod ->
      fun t ->
        t.icount <- t.icount + 1;
        let b = fb t in
        let a = fa t in
        fd t (m3_mod a b);
        t.pc <- next
  | I.Min ->
      fun t ->
        t.icount <- t.icount + 1;
        let b = fb t in
        let a = fa t in
        fd t (if a < b then a else b);
        t.pc <- next
  | I.Max ->
      fun t ->
        t.icount <- t.icount + 1;
        let b = fb t in
        let a = fa t in
        fd t (if a > b then a else b);
        t.pc <- next
  | I.Neg ->
      fun t ->
        t.icount <- t.icount + 1;
        let b = fb t in
        let a = fa t in
        ignore b;
        fd t (-a);
        t.pc <- next
  | I.Abso ->
      fun t ->
        t.icount <- t.icount + 1;
        let b = fb t in
        let a = fa t in
        ignore b;
        fd t (abs a);
        t.pc <- next
  | I.Setcc r ->
      let cmp = compile_relop r in
      fun t ->
        t.icount <- t.icount + 1;
        let b = fb t in
        let a = fa t in
        fd t (if cmp a b then 1 else 0);
        t.pc <- next

let compile_cbr (r : I.relop) fa fb ~target ~next : op =
  match r with
  | I.Req ->
      fun t ->
        t.icount <- t.icount + 1;
        let b = fb t in
        let a = fa t in
        t.pc <- (if a = b then target else next)
  | I.Rne ->
      fun t ->
        t.icount <- t.icount + 1;
        let b = fb t in
        let a = fa t in
        t.pc <- (if a <> b then target else next)
  | I.Rlt ->
      fun t ->
        t.icount <- t.icount + 1;
        let b = fb t in
        let a = fa t in
        t.pc <- (if a < b then target else next)
  | I.Rle ->
      fun t ->
        t.icount <- t.icount + 1;
        let b = fb t in
        let a = fa t in
        t.pc <- (if a <= b then target else next)
  | I.Rgt ->
      fun t ->
        t.icount <- t.icount + 1;
        let b = fb t in
        let a = fa t in
        t.pc <- (if a > b then target else next)
  | I.Rge ->
      fun t ->
        t.icount <- t.icount + 1;
        let b = fb t in
        let a = fa t in
        t.pc <- (if a >= b then target else next)

(** Compile one instruction at [pc] to its specialized closure. The
    dispatch invariant: a closure is invoked with [t.pc = pc] and leaves
    [t.pc] at its successor (or the machine halted). Common operand shapes
    get hand-inlined fast paths; every other shape goes through the
    composed operand closures — still match-free at run time. *)
let compile_one (img : Image.t) ~pc (insn : I.t) : op =
  let next = pc + 1 in
  match insn with
  (* --- moves: the hottest instruction, so the hottest shapes are fully
     inlined --- *)
  | I.Mov (I.Reg d, I.Reg s) ->
      fun t ->
        t.icount <- t.icount + 1;
        t.regs.(d) <- t.regs.(s);
        t.pc <- next
  | I.Mov (I.Reg d, I.Imm n) ->
      fun t ->
        t.icount <- t.icount + 1;
        t.regs.(d) <- n;
        t.pc <- next
  | I.Mov (I.Reg d, I.Mem (r, o)) ->
      fun t ->
        t.icount <- t.icount + 1;
        t.regs.(d) <- read t (t.regs.(r) + o);
        t.pc <- next
  | I.Mov (I.Mem (r, o), I.Reg s) ->
      fun t ->
        t.icount <- t.icount + 1;
        write t (t.regs.(r) + o) t.regs.(s);
        t.pc <- next
  | I.Mov (I.Mem (r, o), I.Imm n) ->
      fun t ->
        t.icount <- t.icount + 1;
        write t (t.regs.(r) + o) n;
        t.pc <- next
  | I.Mov (d, s) ->
      let fs = compile_eval s in
      let fd = compile_store d in
      fun t ->
        t.icount <- t.icount + 1;
        fd t (fs t);
        t.pc <- next
  | I.Lea (r, o) ->
      let fa = compile_addr o in
      fun t ->
        t.icount <- t.icount + 1;
        t.regs.(r) <- fa t;
        t.pc <- next
  (* --- arithmetic: register/immediate add & sub inlined, the rest
     specialized per aop over compiled operands --- *)
  | I.Arith (I.Add, I.Reg d, I.Reg a, I.Reg b) ->
      fun t ->
        t.icount <- t.icount + 1;
        t.regs.(d) <- t.regs.(a) + t.regs.(b);
        t.pc <- next
  | I.Arith (I.Add, I.Reg d, I.Reg a, I.Imm b) ->
      fun t ->
        t.icount <- t.icount + 1;
        t.regs.(d) <- t.regs.(a) + b;
        t.pc <- next
  | I.Arith (I.Sub, I.Reg d, I.Reg a, I.Reg b) ->
      fun t ->
        t.icount <- t.icount + 1;
        t.regs.(d) <- t.regs.(a) - t.regs.(b);
        t.pc <- next
  | I.Arith (I.Sub, I.Reg d, I.Reg a, I.Imm b) ->
      fun t ->
        t.icount <- t.icount + 1;
        t.regs.(d) <- t.regs.(a) - b;
        t.pc <- next
  | I.Arith (op, d, a, b) ->
      compile_arith op (compile_store d) (compile_eval a) (compile_eval b) next
  | I.Cbr (r, I.Reg a, I.Imm b, target) ->
      (* The list-walk compare: register against immediate (usually NIL). *)
      (match r with
      | I.Req ->
          fun t ->
            t.icount <- t.icount + 1;
            t.pc <- (if t.regs.(a) = b then target else next)
      | I.Rne ->
          fun t ->
            t.icount <- t.icount + 1;
            t.pc <- (if t.regs.(a) <> b then target else next)
      | I.Rlt ->
          fun t ->
            t.icount <- t.icount + 1;
            t.pc <- (if t.regs.(a) < b then target else next)
      | I.Rle ->
          fun t ->
            t.icount <- t.icount + 1;
            t.pc <- (if t.regs.(a) <= b then target else next)
      | I.Rgt ->
          fun t ->
            t.icount <- t.icount + 1;
            t.pc <- (if t.regs.(a) > b then target else next)
      | I.Rge ->
          fun t ->
            t.icount <- t.icount + 1;
            t.pc <- (if t.regs.(a) >= b then target else next))
  | I.Cbr (r, a, b, target) ->
      compile_cbr r (compile_eval a) (compile_eval b) ~target ~next
  | I.Jmp target ->
      fun t ->
        t.icount <- t.icount + 1;
        t.pc <- target
  | I.Push (I.Reg r) ->
      fun t ->
        t.icount <- t.icount + 1;
        push t t.regs.(r);
        t.pc <- next
  | I.Push (I.Imm n) ->
      fun t ->
        t.icount <- t.icount + 1;
        push t n;
        t.pc <- next
  | I.Push o ->
      let fv = compile_eval o in
      fun t ->
        t.icount <- t.icount + 1;
        push t (fv t);
        t.pc <- next
  | I.Call (I.Cproc fid) ->
      let entry = img.Image.procs.(fid).Image.pi_entry in
      let ra = pc + 1 in
      fun t ->
        t.icount <- t.icount + 1;
        push t ra;
        t.pc <- entry
  | I.Call (I.Crt rc) ->
      (* [t.pc = pc] here (dispatch invariant), which is exactly what the
         stack walk needs if the runtime call collects. *)
      fun t ->
        t.icount <- t.icount + 1;
        exec_rt t rc;
        if not t.halted then t.pc <- next
  | I.Enter { frame_size; saves } ->
      let stack_base = img.Image.stack_base in
      fun t ->
        t.icount <- t.icount + 1;
        push t t.regs.(fp_r);
        t.regs.(fp_r) <- t.regs.(sp_r);
        let f = t.regs.(fp_r) in
        if f - frame_size < stack_base then stack_overflow ();
        Mem.fill t.mem (f - frame_size) frame_size 0;
        for i = 0 to Array.length saves - 1 do
          Mem.unsafe_set t.mem (f - 1 - i) t.regs.(Array.unsafe_get saves i)
        done;
        t.regs.(sp_r) <- f - frame_size;
        t.pc <- next
  | I.Leave ->
      (* The owning procedure's save slots are baked in at translation —
         even the [code_fid] load the reference engine pays is gone. *)
      let saves = img.Image.procs.(img.Image.code_fid.(pc)).Image.pi_saves in
      fun t ->
        t.icount <- t.icount + 1;
        let f = t.regs.(fp_r) in
        for i = 0 to Array.length saves - 1 do
          let r, off = Array.unsafe_get saves i in
          t.regs.(r) <- read t (f + off)
        done;
        t.regs.(sp_r) <- f;
        t.regs.(fp_r) <- read t f;
        t.regs.(sp_r) <- t.regs.(sp_r) + 1;
        t.pc <- next
  | I.Ret n ->
      fun t ->
        t.icount <- t.icount + 1;
        let ra = read t t.regs.(sp_r) in
        t.regs.(sp_r) <- t.regs.(sp_r) + 1 + n;
        if ra = sentinel_ret then t.halted <- true else t.pc <- ra
  | I.Wbar o ->
      let fa = compile_addr o in
      fun t ->
        t.icount <- t.icount + 1;
        (* The shared dual-semantics barrier hook (SSB when generational,
           insertion barrier when incremental) — identical to the switch
           engine's [Wbar] case by construction. *)
        barrier_hit t (fa t);
        t.pc <- next
  | I.Trap msg ->
      fun t ->
        t.icount <- t.icount + 1;
        raise (Guest_error msg)

(* ------------------------------------------------------------------ *)
(* Superinstruction compilation                                        *)
(* ------------------------------------------------------------------ *)

(** Compile the legal fused pair at [(pc, pc+1)] into one closure. The
    hottest dynamic shapes (measured on the benchmark programs: load+branch
    from the list walk, load/store chains, add+store, push sequences,
    push+call) are hand-inlined so the whole
    pair is a single closure body; everything else chains the two
    standalone closures [a] and [b], still saving a dispatch.

    Exactness rules, shared with the generic path:
    - [icount] advances once per instruction, between the two halves;
    - the intermediate pc [pc+1] is materialized before any second half
      that can fault or reach a gc-point (a [Call] second half always
      sees the exact call pc);
    - a faulting first half leaves [t.pc = pc] (the dispatch invariant). *)
let compile_pair (img : Image.t) ~pc (ai : I.t) (bi : I.t) (a : op) (b : op)
    ~(fused_execs : int ref) : op =
  let p1 = pc + 1 in
  let next2 = pc + 2 in
  match (ai, bi) with
  (* load ; branch-on-immediate — the list-walk idiom, the hottest pair on
     both destroy and takl. Neither the register compare nor the immediate
     can fault, so no intermediate pc store is needed. *)
  | I.Mov (I.Reg d, I.Mem (r, o)), I.Cbr (rel, I.Reg c, I.Imm m, tg) -> (
      match rel with
      | I.Req ->
          fun t ->
            fused_execs := !fused_execs + 1;
            t.icount <- t.icount + 1;
            t.regs.(d) <- read t (t.regs.(r) + o);
            t.icount <- t.icount + 1;
            t.pc <- (if t.regs.(c) = m then tg else next2)
      | I.Rne ->
          fun t ->
            fused_execs := !fused_execs + 1;
            t.icount <- t.icount + 1;
            t.regs.(d) <- read t (t.regs.(r) + o);
            t.icount <- t.icount + 1;
            t.pc <- (if t.regs.(c) <> m then tg else next2)
      | I.Rlt ->
          fun t ->
            fused_execs := !fused_execs + 1;
            t.icount <- t.icount + 1;
            t.regs.(d) <- read t (t.regs.(r) + o);
            t.icount <- t.icount + 1;
            t.pc <- (if t.regs.(c) < m then tg else next2)
      | I.Rle ->
          fun t ->
            fused_execs := !fused_execs + 1;
            t.icount <- t.icount + 1;
            t.regs.(d) <- read t (t.regs.(r) + o);
            t.icount <- t.icount + 1;
            t.pc <- (if t.regs.(c) <= m then tg else next2)
      | I.Rgt ->
          fun t ->
            fused_execs := !fused_execs + 1;
            t.icount <- t.icount + 1;
            t.regs.(d) <- read t (t.regs.(r) + o);
            t.icount <- t.icount + 1;
            t.pc <- (if t.regs.(c) > m then tg else next2)
      | I.Rge ->
          fun t ->
            fused_execs := !fused_execs + 1;
            t.icount <- t.icount + 1;
            t.regs.(d) <- read t (t.regs.(r) + o);
            t.icount <- t.icount + 1;
            t.pc <- (if t.regs.(c) >= m then tg else next2))
  (* load ; branch-on-registers *)
  | I.Mov (I.Reg d, I.Mem (r, o)), I.Cbr (rel, I.Reg c1, I.Reg c2, tg) ->
      let cmp = compile_relop rel in
      fun t ->
        fused_execs := !fused_execs + 1;
        t.icount <- t.icount + 1;
        t.regs.(d) <- read t (t.regs.(r) + o);
        t.icount <- t.icount + 1;
        t.pc <- (if cmp t.regs.(c1) t.regs.(c2) then tg else next2)
  (* load ; store *)
  | I.Mov (I.Reg d, I.Mem (r, o)), I.Mov (I.Mem (r2, o2), I.Reg s) ->
      fun t ->
        fused_execs := !fused_execs + 1;
        t.icount <- t.icount + 1;
        t.regs.(d) <- read t (t.regs.(r) + o);
        t.pc <- p1;
        t.icount <- t.icount + 1;
        write t (t.regs.(r2) + o2) t.regs.(s);
        t.pc <- next2
  (* load ; load *)
  | I.Mov (I.Reg d, I.Mem (r, o)), I.Mov (I.Reg d2, I.Mem (r2, o2)) ->
      fun t ->
        fused_execs := !fused_execs + 1;
        t.icount <- t.icount + 1;
        t.regs.(d) <- read t (t.regs.(r) + o);
        t.pc <- p1;
        t.icount <- t.icount + 1;
        t.regs.(d2) <- read t (t.regs.(r2) + o2);
        t.pc <- next2
  (* store ; load *)
  | I.Mov (I.Mem (r, o), I.Reg s), I.Mov (I.Reg d, I.Mem (r2, o2)) ->
      fun t ->
        fused_execs := !fused_execs + 1;
        t.icount <- t.icount + 1;
        write t (t.regs.(r) + o) t.regs.(s);
        t.pc <- p1;
        t.icount <- t.icount + 1;
        t.regs.(d) <- read t (t.regs.(r2) + o2);
        t.pc <- next2
  (* add-immediate ; store — the increment-and-write-back idiom *)
  | I.Arith (I.Add, I.Reg d, I.Reg ra, I.Imm bimm), I.Mov (I.Mem (r, o), I.Reg s)
    ->
      fun t ->
        fused_execs := !fused_execs + 1;
        t.icount <- t.icount + 1;
        t.regs.(d) <- t.regs.(ra) + bimm;
        t.pc <- p1;
        t.icount <- t.icount + 1;
        write t (t.regs.(r) + o) t.regs.(s);
        t.pc <- next2
  (* push ; push — argument setup *)
  | I.Push (I.Reg r1), I.Push (I.Reg r2) ->
      fun t ->
        fused_execs := !fused_execs + 1;
        t.icount <- t.icount + 1;
        push t t.regs.(r1);
        t.pc <- p1;
        t.icount <- t.icount + 1;
        push t t.regs.(r2);
        t.pc <- next2
  (* push ; call — the last argument and the transfer. The call is a
     gc-point, so the exact call pc is stored before it executes. *)
  | I.Push (I.Reg r1), I.Call (I.Cproc fid) ->
      let entry = img.Image.procs.(fid).Image.pi_entry in
      let ra = pc + 2 in
      fun t ->
        fused_execs := !fused_execs + 1;
        t.icount <- t.icount + 1;
        push t t.regs.(r1);
        t.pc <- p1;
        t.icount <- t.icount + 1;
        push t ra;
        t.pc <- entry
  | I.Push (I.Imm n), I.Call (I.Cproc fid) ->
      let entry = img.Image.procs.(fid).Image.pi_entry in
      let ra = pc + 2 in
      fun t ->
        fused_execs := !fused_execs + 1;
        t.icount <- t.icount + 1;
        push t n;
        t.pc <- p1;
        t.icount <- t.icount + 1;
        push t ra;
        t.pc <- entry
  | I.Push (I.Reg r1), I.Call (I.Crt rc) ->
      fun t ->
        fused_execs := !fused_execs + 1;
        t.icount <- t.icount + 1;
        push t t.regs.(r1);
        t.pc <- p1;
        t.icount <- t.icount + 1;
        exec_rt t rc;
        if not t.halted then t.pc <- next2
  | I.Push (I.Imm n), I.Call (I.Crt rc) ->
      fun t ->
        fused_execs := !fused_execs + 1;
        t.icount <- t.icount + 1;
        push t n;
        t.pc <- p1;
        t.icount <- t.icount + 1;
        exec_rt t rc;
        if not t.halted then t.pc <- next2
  (* Everything else: chain the standalone closures — one dispatch saved,
     both halves keep their own pc/icount bookkeeping. *)
  | _ ->
      fun t ->
        fused_execs := !fused_execs + 1;
        a t;
        b t

(* ------------------------------------------------------------------ *)
(* Translation: closure array + superinstruction fusion                *)
(* ------------------------------------------------------------------ *)

type engine = {
  ops : op array;
  closures : int;
  fused_total : int; (* static fused pairs installed *)
  fused_by_kind : (F.pair_kind * int) list;
  fused_execs : int ref; (* dynamic fused-dispatch count, across runs *)
  translate_ns : int64;
}

let translate (img : Image.t) : engine =
  let t0 = T.Control.now_ns () in
  let code = img.Image.code in
  let n = Array.length code in
  let ops = Array.init n (fun pc -> compile_one img ~pc code.(pc)) in
  (* Fusion: greedy left-to-right over legal adjacent pairs. The fused
     closure replaces the first index only; the second keeps its standalone
     closure for incoming control transfers. *)
  let entries =
    Array.to_list (Array.map (fun (pi : Image.proc_info) -> pi.Image.pi_entry) img.Image.procs)
  in
  let tgt = F.targets ~entries code in
  let kind_counts = List.map (fun k -> (k, ref 0)) F.all_pairs in
  let fused_execs = ref 0 in
  let fused_total = ref 0 in
  let i = ref 0 in
  while !i < n - 1 do
    (match F.fusible code tgt !i with
    | Some kind ->
        ops.(!i) <-
          compile_pair img ~pc:!i code.(!i) code.(!i + 1) ops.(!i) ops.(!i + 1)
            ~fused_execs;
        incr (List.assq kind kind_counts);
        incr fused_total;
        incr i (* non-overlapping: the pair consumes both indices *)
    | None -> ());
    incr i
  done;
  let dt = Int64.sub (T.Control.now_ns ()) t0 in
  T.Metrics.incr ~by:(Int64.to_int dt) c_translate_ns;
  T.Metrics.incr ~by:n c_closures;
  T.Metrics.incr ~by:!fused_total c_fused;
  List.iter
    (fun (k, r) -> T.Metrics.incr ~by:!r (List.assq k c_fuse_kind))
    kind_counts;
  {
    ops;
    closures = n;
    fused_total = !fused_total;
    fused_by_kind = List.map (fun (k, r) -> (k, !r)) kind_counts;
    fused_execs;
    translate_ns = dt;
  }

(* One-slot translation cache, keyed by physical image identity: benches
   and tests run many machines over one image, and translation is pure in
   the image. *)
let cache : (Image.t * engine) option ref = ref None

let engine_for (img : Image.t) : engine =
  match !cache with
  | Some (i, e) when i == img -> e
  | _ ->
      let e = translate img in
      cache := Some (img, e);
      e

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

(* Fuel note: the budget check reads [icount], which fused pairs advance by
   2 — a run killed by fuel exhaustion may execute one instruction past the
   budget. Completed runs are exact. The unbounded case drops the budget
   compare from the loop entirely. *)
let dispatch (e : engine) t ~fuel =
  let stop = if fuel >= max_int - t.icount then max_int else t.icount + fuel in
  let ops = e.ops in
  let execs0 = !(e.fused_execs) in
  Fun.protect
    ~finally:(fun () ->
      T.Metrics.incr ~by:(!(e.fused_execs) - execs0) c_fused_execs)
    (fun () ->
      if stop = max_int then
        while not t.halted do
          ops.(t.pc) t
        done
      else
        while (not t.halted) && t.icount < stop do
          ops.(t.pc) t
        done)

(** Run a machine under the threaded engine: translate (or reuse) the
    image's closure array, then drive the shared run wrapper — reset,
    telemetry, fuel semantics and all collector state are {!Interp}'s. *)
let run ?fuel (t : Interp.t) =
  let e = engine_for t.image in
  Interp.run_with ~loop:(dispatch e) ?fuel t

(* ------------------------------------------------------------------ *)
(* Runtime switch                                                      *)
(* ------------------------------------------------------------------ *)

(* The engine [Driver.Compile.run] picks when its caller names none: on
   until [set_enabled] ([mmrun --no-threaded]) turns it off. *)
let on = ref true
let enabled () = !on
let set_enabled b = on := b
