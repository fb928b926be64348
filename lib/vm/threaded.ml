(** The threaded-code execution engine.

    The reference interpreter ({!Interp.step}) pays a boxed [Insn.t] match
    plus nested operand-mode matches on every instruction executed. In the
    spirit of the paper's thesis — move run-time work to static translation
    (all of the collector's knowledge lives in compile-time tables; §6
    measures zero executed-code overhead) — this engine performs all of
    that decoding {e once}, at image load.

    The unit of translation is the {e run}: straight-line code from a
    leader ({!leaders}) up to its first branch, call, return or trap, or up
    to the next leader. Each instruction compiles to one closure
    specialized on its opcode and operand addressing modes (e.g.
    [Mov (Reg d, Reg s)] becomes two array loads) that does its effect and
    tail-calls the next instruction of its run; the run's last instruction
    adds the run's length to [icount] and sets [pc], once. Execution is a
    loop indexing the closure array by pc, one dispatch per run
    (selective inlining of direct-threaded code, after Piumarta and
    Riccardi, PLDI 1998).

    Runs are where the engine meets the paper, and three rules keep what
    the collector and any fault observe exactly the reference engine's:

    - {b A gc-point ends its run.} Every [Call] is a terminator, so no run
      crosses one. A runtime call stores its own pc and the full count
      before it executes, so a collection and the stack walk see the pc
      and the tables they see under {!Interp.step}.
    - {b Control enters a run only at its leader.} Procedure entries,
      branch targets and return points are leaders, and only leaders hold
      a run in the closure array; every other slot fails loudly.
    - {b A fault observes exact state.} Inside a run, [icount] still holds
      the count at the run's start and [pc] the leader. Each closure knows
      its pc and its place in its run at translation time; the cold path
      of a fault (an out-of-range read or write, a stack overflow, DIV or
      MOD by zero, a trap) sets both before it raises.

    Fuel is exact too: whole runs are dispatched while the longest run
    still fits in the budget, and {!Interp.step} finishes it.

    Observable semantics are identical to the reference engine and
    enforced by the differential suite ([test/test_threaded.ml]): same
    output, same instruction counts, same collection counts, same final
    heap image, same state after a fault or at the end of the fuel.

    The engine is a pure runtime switch ([mmrun --no-threaded]); the
    [step]-based interpreter remains the reference semantics. *)

module I = Machine.Insn
module T = Telemetry
open Interp

type op = Interp.t -> unit

(* Translation-time telemetry: one-time costs, recorded when the engine for
   an image is built (gated on the master switch like every other probe).
   [vm.fused_execs] counts the instructions that ran without a dispatch of
   their own, so dispatches are [vm.instructions - vm.fused_execs]. *)
let c_translate_ns = T.Metrics.counter "vm.translate_ns"
let c_closures = T.Metrics.counter "vm.closures"
let c_runs = T.Metrics.counter "vm.runs"
let c_fused_execs = T.Metrics.counter "vm.fused_execs"

let sp_r = Machine.Reg.sp
let fp_r = Machine.Reg.fp

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)
(* ------------------------------------------------------------------ *)

(** Instructions that end a run: control may not continue at [pc + 1], or
    the instruction is a gc-point ([Call]). *)
let ends_run = function
  | I.Cbr _ | I.Jmp _ | I.Call _ | I.Ret _ | I.Trap _ -> true
  | I.Mov _ | I.Lea _ | I.Arith _ | I.Push _ | I.Enter _ | I.Leave | I.Wbar _ -> false

(** [leaders ~entries code] marks the first instruction of every run:
    index 0, the procedure [entries], every [Jmp]/[Cbr] target, and the
    instruction after every run-ending one (which includes each return
    point, the pc after a procedure call). Purely static, so it runs once
    at translation. *)
let leaders ~entries (code : I.t array) : bool array =
  let n = Array.length code in
  let lead = Array.make n false in
  let mark i = if i >= 0 && i < n then lead.(i) <- true in
  mark 0;
  Array.iter mark entries;
  Array.iteri
    (fun pc insn ->
      (match insn with I.Jmp l | I.Cbr (_, _, _, l) -> mark l | _ -> ());
      if ends_run insn then mark (pc + 1))
    code;
  lead

(* ------------------------------------------------------------------ *)
(* Exact state on the cold path                                        *)
(* ------------------------------------------------------------------ *)

(* Where an instruction sits: its pc, and what [icount] gains if it
   faults — its place in its run counting from 1, since the run has not
   counted itself yet; 0 for the run's last instruction once that has
   added the whole run. *)
type here = { at_pc : int; count : int }

let[@inline never] fault t h =
  t.pc <- h.at_pc;
  t.icount <- t.icount + h.count

let[@inline never] read_fault t h a =
  fault t h;
  oob_read a

let[@inline never] write_fault t h a =
  fault t h;
  oob_write a

let[@inline never] overflow_fault t h =
  fault t h;
  stack_overflow ()

(* [Interp.read]/[write]/[push], with the cold path above. *)
let[@inline always] rd t h a =
  if a < 0 || a >= Mem.length t.mem then read_fault t h a else Mem.unsafe_get t.mem a

let[@inline always] wr t h a v =
  if a < 8 || a >= Mem.length t.mem then write_fault t h a else Mem.unsafe_set t.mem a v

let[@inline always] push_at t h v =
  let nsp = t.regs.(sp_r) - 1 in
  if nsp < t.image.Image.stack_base then overflow_fault t h;
  t.regs.(sp_r) <- nsp;
  wr t h nsp v

let div_at t h a b = if b = 0 then (fault t h; m3_div a b) else Support.Ints.m3_div a b
let mod_at t h a b = if b = 0 then (fault t h; m3_mod a b) else Support.Ints.m3_mod a b

(* ------------------------------------------------------------------ *)
(* Operand compilation                                                 *)
(* ------------------------------------------------------------------ *)

(* Each operand mode becomes a dedicated closure; the mode match runs once
   here, never per step. *)

let compile_eval h (o : I.operand) : Interp.t -> int =
  match o with
  | I.Reg r -> fun t -> t.regs.(r)
  | I.Imm n -> fun _ -> n
  | I.Mem (r, d) -> fun t -> rd t h (t.regs.(r) + d)
  | I.Mem2 (r1, r2, d) -> fun t -> rd t h (t.regs.(r1) + t.regs.(r2) + d)
  | I.Defer (r, d1, d2) -> fun t -> rd t h (rd t h (t.regs.(r) + d1) + d2)
  | I.Abs a -> fun t -> rd t h a

let compile_store h (o : I.operand) : Interp.t -> int -> unit =
  match o with
  | I.Reg r -> fun t v -> t.regs.(r) <- v
  | I.Imm _ ->
      fun t _ ->
        fault t h;
        Vm_error.fail "store to immediate"
  | I.Mem (r, d) -> fun t v -> wr t h (t.regs.(r) + d) v
  | I.Mem2 (r1, r2, d) -> fun t v -> wr t h (t.regs.(r1) + t.regs.(r2) + d) v
  | I.Defer (r, d1, d2) -> fun t v -> wr t h (rd t h (t.regs.(r) + d1) + d2) v
  | I.Abs a -> fun t v -> wr t h a v

let compile_addr h (o : I.operand) : Interp.t -> int =
  match o with
  | I.Mem (r, d) -> fun t -> t.regs.(r) + d
  | I.Mem2 (r1, r2, d) -> fun t -> t.regs.(r1) + t.regs.(r2) + d
  | I.Defer (r, d1, d2) -> fun t -> rd t h (t.regs.(r) + d1) + d2
  | I.Abs a -> fun _ -> a
  | I.Reg _ | I.Imm _ ->
      fun t ->
        fault t h;
        Vm_error.fail "effective address of a non-memory operand"

(* ------------------------------------------------------------------ *)
(* Instruction compilation                                             *)
(* ------------------------------------------------------------------ *)

(* Evaluation-order note: the reference engine evaluates [apply_aop op
   (eval a) (eval b)] and [relop_eval r (eval a) (eval b)] with OCaml's
   right-to-left argument order, so a faulting [b] operand surfaces before
   a faulting [a]. The compiled closures preserve that order. *)

(* Specialized arithmetic: the aop match runs at translation, and the
   common bodies are written out, since a closure passed for the operator
   would cost an indirect call per execution. *)
let compile_arith h (op : I.aop) fd fa fb (k : op) : op =
  match op with
  | I.Add ->
      fun t ->
        let b = fb t in
        let a = fa t in
        fd t (a + b);
        k t
  | I.Sub ->
      fun t ->
        let b = fb t in
        let a = fa t in
        fd t (a - b);
        k t
  | I.Mul ->
      fun t ->
        let b = fb t in
        let a = fa t in
        fd t (a * b);
        k t
  | I.Div ->
      fun t ->
        let b = fb t in
        let a = fa t in
        fd t (div_at t h a b);
        k t
  | I.Mod ->
      fun t ->
        let b = fb t in
        let a = fa t in
        fd t (mod_at t h a b);
        k t
  | I.Min | I.Max | I.Neg | I.Abso | I.Setcc _ ->
      (* Rare: the reference engine's own match, which cannot fault. *)
      fun t ->
        let b = fb t in
        let a = fa t in
        fd t (apply_aop op a b);
        k t

(** Compile an instruction that does not end its run, at [h], to a closure
    that does its effect and then tail-calls [k], the rest of the run.
    Common operand shapes get hand-inlined bodies; every other shape goes
    through the composed operand closures, still match-free at run time. *)
let compile_body (img : Image.t) h (insn : I.t) (k : op) : op =
  match insn with
  (* --- moves: the hottest instruction, so the hottest shapes are fully
     inlined --- *)
  | I.Mov (I.Reg d, I.Reg s) ->
      fun t ->
        t.regs.(d) <- t.regs.(s);
        k t
  | I.Mov (I.Reg d, I.Imm n) ->
      fun t ->
        t.regs.(d) <- n;
        k t
  | I.Mov (I.Reg d, I.Mem (r, o)) ->
      fun t ->
        t.regs.(d) <- rd t h (t.regs.(r) + o);
        k t
  | I.Mov (I.Mem (r, o), I.Reg s) ->
      fun t ->
        wr t h (t.regs.(r) + o) t.regs.(s);
        k t
  | I.Mov (I.Mem (r, o), I.Imm n) ->
      fun t ->
        wr t h (t.regs.(r) + o) n;
        k t
  | I.Mov (I.Reg d, I.Mem2 (r1, r2, o)) ->
      fun t ->
        t.regs.(d) <- rd t h (t.regs.(r1) + t.regs.(r2) + o);
        k t
  | I.Mov (I.Mem2 (r1, r2, o), I.Reg s) ->
      fun t ->
        wr t h (t.regs.(r1) + t.regs.(r2) + o) t.regs.(s);
        k t
  | I.Mov (d, s) ->
      let fs = compile_eval h s in
      let fd = compile_store h d in
      fun t ->
        fd t (fs t);
        k t
  | I.Lea (r, o) ->
      let fa = compile_addr h o in
      fun t ->
        t.regs.(r) <- fa t;
        k t
  (* --- arithmetic: register/immediate add & sub inlined, the rest
     specialized per aop over compiled operands --- *)
  | I.Arith (I.Add, I.Reg d, I.Reg a, I.Reg b) ->
      fun t ->
        t.regs.(d) <- t.regs.(a) + t.regs.(b);
        k t
  | I.Arith (I.Add, I.Reg d, I.Reg a, I.Imm b) ->
      fun t ->
        t.regs.(d) <- t.regs.(a) + b;
        k t
  | I.Arith (I.Sub, I.Reg d, I.Reg a, I.Reg b) ->
      fun t ->
        t.regs.(d) <- t.regs.(a) - t.regs.(b);
        k t
  | I.Arith (I.Sub, I.Reg d, I.Reg a, I.Imm b) ->
      fun t ->
        t.regs.(d) <- t.regs.(a) - b;
        k t
  | I.Arith (op, d, a, b) ->
      compile_arith h op (compile_store h d) (compile_eval h a) (compile_eval h b) k
  | I.Push (I.Reg r) ->
      fun t ->
        push_at t h t.regs.(r);
        k t
  | I.Push (I.Imm n) ->
      fun t ->
        push_at t h n;
        k t
  | I.Push o ->
      let fv = compile_eval h o in
      fun t ->
        push_at t h (fv t);
        k t
  | I.Enter { frame_size; saves } ->
      let stack_base = img.Image.stack_base in
      fun t ->
        push_at t h t.regs.(fp_r);
        let f = t.regs.(sp_r) in
        t.regs.(fp_r) <- f;
        if f - frame_size < stack_base then overflow_fault t h;
        Mem.fill t.mem (f - frame_size) frame_size 0;
        for i = 0 to Array.length saves - 1 do
          Mem.unsafe_set t.mem (f - 1 - i) t.regs.(Array.unsafe_get saves i)
        done;
        t.regs.(sp_r) <- f - frame_size;
        k t
  | I.Leave ->
      (* The owning procedure's save slots are baked in at translation —
         even the [code_fid] load the reference engine pays is gone. *)
      let saves = img.Image.procs.(img.Image.code_fid.(h.at_pc)).Image.pi_saves in
      fun t ->
        let f = t.regs.(fp_r) in
        for i = 0 to Array.length saves - 1 do
          let r, off = Array.unsafe_get saves i in
          t.regs.(r) <- rd t h (f + off)
        done;
        t.regs.(sp_r) <- f;
        t.regs.(fp_r) <- rd t h f;
        t.regs.(sp_r) <- t.regs.(sp_r) + 1;
        k t
  | I.Wbar o ->
      let fa = compile_addr h o in
      fun t ->
        let a = fa t in
        (* The shared dual-semantics barrier hook (SSB when generational,
           insertion barrier when incremental); its only fault is the
           incremental barrier's read of the slot. *)
        (try barrier_hit t a
         with e ->
           fault t h;
           raise e);
        k t
  | I.Cbr _ | I.Jmp _ | I.Call _ | I.Ret _ | I.Trap _ ->
      invalid_arg "Threaded.compile_body: a run-ending instruction"

(** Compile the last instruction of a run of [len] instructions, at [pc]:
    it adds [len] to [icount] and leaves [pc] at the successor (or the
    machine halted, or raises with [pc] on itself). A run that stops
    before a leader ends in an instruction that falls through; it gets a
    one-line continuation that does the same. *)
let compile_last (img : Image.t) ~pc ~len (insn : I.t) : op =
  let h = { at_pc = pc; count = 0 } in
  let next = pc + 1 in
  match insn with
  | I.Cbr (r, I.Reg a, I.Imm b, target) -> (
      (* The list-walk compare: register against immediate (usually NIL). *)
      match r with
      | I.Req ->
          fun t ->
            t.icount <- t.icount + len;
            t.pc <- (if t.regs.(a) = b then target else next)
      | I.Rne ->
          fun t ->
            t.icount <- t.icount + len;
            t.pc <- (if t.regs.(a) <> b then target else next)
      | I.Rlt ->
          fun t ->
            t.icount <- t.icount + len;
            t.pc <- (if t.regs.(a) < b then target else next)
      | I.Rle ->
          fun t ->
            t.icount <- t.icount + len;
            t.pc <- (if t.regs.(a) <= b then target else next)
      | I.Rgt ->
          fun t ->
            t.icount <- t.icount + len;
            t.pc <- (if t.regs.(a) > b then target else next)
      | I.Rge ->
          fun t ->
            t.icount <- t.icount + len;
            t.pc <- (if t.regs.(a) >= b then target else next))
  | I.Cbr (r, I.Reg a, I.Reg b, target) -> (
      (* A loop bound or an index against a length. *)
      match r with
      | I.Req ->
          fun t ->
            t.icount <- t.icount + len;
            t.pc <- (if t.regs.(a) = t.regs.(b) then target else next)
      | I.Rne ->
          fun t ->
            t.icount <- t.icount + len;
            t.pc <- (if t.regs.(a) <> t.regs.(b) then target else next)
      | I.Rlt ->
          fun t ->
            t.icount <- t.icount + len;
            t.pc <- (if t.regs.(a) < t.regs.(b) then target else next)
      | I.Rle ->
          fun t ->
            t.icount <- t.icount + len;
            t.pc <- (if t.regs.(a) <= t.regs.(b) then target else next)
      | I.Rgt ->
          fun t ->
            t.icount <- t.icount + len;
            t.pc <- (if t.regs.(a) > t.regs.(b) then target else next)
      | I.Rge ->
          fun t ->
            t.icount <- t.icount + len;
            t.pc <- (if t.regs.(a) >= t.regs.(b) then target else next))
  | I.Cbr (r, a, b, target) ->
      (* Rare: a memory or immediate first operand. *)
      let fa = compile_eval h a and fb = compile_eval h b in
      fun t ->
        t.icount <- t.icount + len;
        let b = fb t in
        let a = fa t in
        t.pc <- (if I.relop_eval r a b then target else next)
  | I.Jmp target ->
      fun t ->
        t.icount <- t.icount + len;
        t.pc <- target
  | I.Call (I.Cproc fid) ->
      let entry = img.Image.procs.(fid).Image.pi_entry in
      fun t ->
        t.icount <- t.icount + len;
        push_at t h next;
        t.pc <- entry
  | I.Call (I.Crt rc) ->
      (* The runtime call may collect: the stack walk needs the exact pc. *)
      fun t ->
        t.icount <- t.icount + len;
        t.pc <- pc;
        exec_rt t rc;
        if not t.halted then t.pc <- next
  | I.Ret n ->
      fun t ->
        t.icount <- t.icount + len;
        let ra = rd t h t.regs.(sp_r) in
        t.regs.(sp_r) <- t.regs.(sp_r) + 1 + n;
        if ra = sentinel_ret then begin
          t.pc <- pc;
          t.halted <- true
        end
        else t.pc <- ra
  | I.Trap msg ->
      fun t ->
        t.icount <- t.icount + len;
        t.pc <- pc;
        raise (Guest_error msg)
  | I.Mov _ | I.Lea _ | I.Arith _ | I.Push _ | I.Enter _ | I.Leave | I.Wbar _ ->
      compile_body img { at_pc = pc; count = len } insn (fun t ->
          t.icount <- t.icount + len;
          t.pc <- next)

(* ------------------------------------------------------------------ *)
(* Translation: one chained closure per run                            *)
(* ------------------------------------------------------------------ *)

type engine = {
  ops : op array; (* the run at each leader; every other slot fails *)
  longest : int; (* instructions in the longest run *)
  translate_ns : int64;
}

let mid_run : op = fun t -> Vm_error.fail "transfer into the middle of a run at pc %d" t.pc

let translate (img : Image.t) : engine =
  let t0 = T.Control.now_ns () in
  let code = img.Image.code in
  let n = Array.length code in
  let entries = Array.map (fun (pi : Image.proc_info) -> pi.Image.pi_entry) img.Image.procs in
  let lead = leaders ~entries code in
  let ops = Array.make n mid_run in
  let runs = ref 0 and longest = ref 0 in
  Array.iteri
    (fun first is_leader ->
      if is_leader then begin
        let last = ref first in
        while (not (ends_run code.(!last))) && !last + 1 < n && not lead.(!last + 1) do
          incr last
        done;
        let len = !last - first + 1 in
        (* Built back to front: each closure captures the rest of its run. *)
        let k = ref (compile_last img ~pc:!last ~len code.(!last)) in
        for pc = !last - 1 downto first do
          k := compile_body img { at_pc = pc; count = pc - first + 1 } code.(pc) !k
        done;
        ops.(first) <- !k;
        incr runs;
        longest := max !longest len
      end)
    lead;
  let dt = Int64.sub (T.Control.now_ns ()) t0 in
  T.Metrics.incr ~by:(Int64.to_int dt) c_translate_ns;
  T.Metrics.incr ~by:n c_closures;
  T.Metrics.incr ~by:!runs c_runs;
  { ops; longest = !longest; translate_ns = dt }

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

(* One dispatch per run. Under a budget, whole runs are dispatched while
   the longest run still fits, and the reference [step] spends the rest
   exactly; the unbounded case drops the budget compare from the loop. *)
let dispatch (e : engine) t ~fuel =
  let stop = if fuel >= max_int - t.icount then max_int else t.icount + fuel in
  let ops = e.ops in
  let icount0 = t.icount in
  let dispatches = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      T.Metrics.incr ~by:(t.icount - icount0 - !dispatches) c_fused_execs)
    (fun () ->
      if stop = max_int then
        while not t.halted do
          incr dispatches;
          ops.(t.pc) t
        done
      else begin
        let bulk = stop - e.longest in
        while (not t.halted) && t.icount <= bulk do
          incr dispatches;
          ops.(t.pc) t
        done;
        while (not t.halted) && t.icount < stop do
          incr dispatches;
          step t
        done
      end)

(** Run a machine under the threaded engine: translate (or reuse) the
    image's runs, then drive the shared run wrapper — reset, telemetry,
    fuel semantics and all collector state are {!Interp}'s. *)
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
