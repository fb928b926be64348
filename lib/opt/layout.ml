(** Code layout for fall-through, the last pass at O1.

    Instruction selection emits blocks in label order and omits a jump only
    to block [b + 1], so the order of the blocks decides how many
    unconditional jumps run. Four steps, each linear in the function:

    + {b Thread jumps.} Every [Jmp] and both [Cjmp] targets are retargeted
      through empty [Jmp]-only blocks to the block that does the work. An
      empty entry takes over its target's code when nothing else jumps
      there.
    + {b Rotate small loop headers.} A latch's [Jmp header] becomes a copy
      of the header's test that branches straight back into the body, so
      an iteration runs no jump. Only headers of at most
      {!max_rotated_instrs} instructions qualify, none of them a call (no
      gc-point is ever duplicated) and none defining a derived temp. A temp
      that only the header reads gets a fresh name of the same kind in the
      copy; one the loop also reads elsewhere is redefined in place, so the
      body reads the copy's value where it read the header's.
    + {b Place blocks.} Greedy traces from the entry, which stays block 0.
      A trace continues into the unplaced successor that does not end in
      [Unreachable] or [Trap] (error blocks go last), is not a bare return, and lies
      in the most loops; ties go to the [Cjmp]'s then-target. Rotation
      runs first so the traces see its edges: a rotated latch can fall
      through to the loop exit. Blocks no trace reaches are unreachable
      and are dropped.
    + {b Renumber} the blocks in placement order.

    The roots at every gc-point are unchanged. Threading and dropping
    unreachable blocks keep every reachable block's live-out sets, and a
    rotated copy reads at the latch exactly what the header read at its
    entry. Register numbers may still move, because linear scan numbers
    positions in block order. *)

module Ir = Mir.Ir
module Iset = Support.Ints.Iset

let max_rotated_instrs = 2

(* Empty [Jmp]-only blocks are forwarding stubs. *)
let forwards (blk : Ir.block) =
  match blk with { Ir.instrs = []; term = Ir.Jmp l } -> Some l | _ -> None

(* Step 1. A cycle of stubs collapses onto one of its blocks, which keeps
   jumping to itself. *)
let thread (f : Ir.func) : bool =
  let blocks = f.Ir.blocks in
  let dest = Array.make (Array.length blocks) (-1) in
  let rec resolve l seen =
    if dest.(l) < 0 then
      dest.(l) <-
        (match forwards blocks.(l) with
        | Some l' when not (List.mem l' seen) -> resolve l' (l :: seen)
        | Some _ | None -> l);
    dest.(l)
  in
  let changed = ref false in
  Array.iter
    (fun (blk : Ir.block) ->
      let t = Ir.map_term_targets (fun l -> resolve l []) blk.Ir.term in
      if t != blk.Ir.term then begin
        blk.Ir.term <- t;
        changed := true
      end)
    blocks;
  (* The entry stays block 0, so a stub there takes over its target when
     nothing else jumps to it. Every other stub is unreachable by now. *)
  (match forwards blocks.(0) with
  | Some t
    when t <> 0
         && Array.for_all
              (fun blk -> forwards blk <> None || not (List.mem t (Ir.term_succs blk.Ir.term)))
              blocks ->
      blocks.(0).Ir.instrs <- blocks.(t).Ir.instrs;
      blocks.(0).Ir.term <- blocks.(t).Ir.term;
      changed := true
  | Some _ | None -> ());
  !changed

(* The header's instructions and test, each temp in [fresh_defs] renamed
   to a fresh one of the same kind. *)
let copy_test (f : Ir.func) ~fresh_defs instrs test : Ir.instr list * Ir.term =
  let ren = Hashtbl.create 4 in
  let rename = function
    | Ir.Otemp t as o -> (
        match Hashtbl.find_opt ren t with Some t' -> Ir.Otemp t' | None -> o)
    | Ir.Oimm _ as o -> o
  in
  let fresh d =
    if not (List.mem d fresh_defs) then d
    else begin
      let d' = Ir.fresh_temp f (Ir.temp_kind f d) in
      Hashtbl.replace ren d d';
      d'
    end
  in
  let instrs = List.map (fun i -> Ir.map_instr_def fresh (Ir.map_instr_uses rename i)) instrs in
  (instrs, Ir.map_term_uses rename test)

(* Step 2. Which headers qualify is decided before any latch is
   rewritten. Stubs in a loop body are unreachable once jumps are threaded,
   so they are not latches. *)
let rotate (f : Ir.func) (loops : Mir.Cfg.loop list) : bool =
  let uses = lazy (Ir.use_counts f) in
  let qualifies (l : Mir.Cfg.loop) =
    let h = f.Ir.blocks.(l.Mir.Cfg.header) in
    match h.Ir.term with
    | Ir.Cjmp (r, a, b, tl, fl) when List.length h.Ir.instrs <= max_rotated_instrs -> (
        let reads = List.concat_map Ir.instr_uses h.Ir.instrs @ Ir.term_uses h.Ir.term in
        let copyable i =
          match (i, Ir.instr_def i) with
          | Ir.Call _, _ -> false
          | _, Some d -> ( match Ir.temp_kind f d with Ir.Kderived _ -> false | _ -> true)
          | _, None -> true
        in
        let private_def d =
          (Lazy.force uses).(d) = List.length (List.filter (( = ) (Ir.Otemp d)) reads)
        in
        (* The copy's test is taken into the body. *)
        let test =
          match (Iset.mem tl l.Mir.Cfg.body, Iset.mem fl l.Mir.Cfg.body) with
          | true, false -> Some (Ir.Cjmp (r, a, b, tl, fl))
          | false, true -> Some (Ir.Cjmp (Ir.negate_relop r, a, b, fl, tl))
          | _ -> None
        in
        match test with
        | Some test when List.for_all copyable h.Ir.instrs ->
            let fresh_defs = List.filter private_def (List.filter_map Ir.instr_def h.Ir.instrs) in
            Some (l, fresh_defs, h.Ir.instrs, test)
        | Some _ | None -> None)
    | Ir.Cjmp _ | Ir.Jmp _ | Ir.Ret _ | Ir.Unreachable | Ir.Trap _ -> None
  in
  let rotations = List.filter_map qualifies loops in
  let changed = ref false in
  List.iter
    (fun ((l : Mir.Cfg.loop), fresh_defs, instrs, test) ->
      Iset.iter
        (fun b ->
          let blk = f.Ir.blocks.(b) in
          if blk.Ir.term = Ir.Jmp l.Mir.Cfg.header && forwards blk = None then begin
            let copy, term = copy_test f ~fresh_defs instrs test in
            blk.Ir.instrs <- blk.Ir.instrs @ copy;
            blk.Ir.term <- term;
            changed := true
          end)
        l.Mir.Cfg.body)
    rotations;
  !changed

(* Step 3: the placement order, entry first. When a trace ends, the next
   one starts at the successor most recently passed over; error blocks
   start traces only when nothing else is left. *)
let place (f : Ir.func) ~(depth : int array) : int list =
  let blocks = f.Ir.blocks in
  let placed = Array.make (Array.length blocks) false in
  let order = ref [] and passed = ref [] and errors = ref [] in
  let rank s =
    match blocks.(s) with
    | { Ir.term = Ir.Unreachable | Ir.Trap _; _ } -> 0
    | { Ir.instrs = []; term = Ir.Ret _ } -> 1
    | _ -> 2
  in
  let is_error s = rank s = 0 in
  let better s s' = rank s > rank s' || (rank s = rank s' && depth.(s) > depth.(s')) in
  let rec trace b =
    placed.(b) <- true;
    order := b :: !order;
    let next =
      List.fold_left
        (fun best s ->
          if placed.(s) then best
          else
            match best with
            | Some s' when not (better s s') ->
                passed := s :: !passed;
                best
            | Some s' ->
                passed := s' :: !passed;
                Some s
            | None -> Some s)
        None
        (Ir.term_succs blocks.(b).Ir.term)
    in
    match next with Some s -> trace s | None -> seed ()
  and seed () =
    match !passed with
    | s :: rest ->
        passed := rest;
        if placed.(s) then seed ()
        else if is_error s then begin
          errors := s :: !errors;
          seed ()
        end
        else trace s
    | [] -> (
        match List.filter (fun s -> not placed.(s)) !errors with
        | s :: rest ->
            errors := rest;
            trace s
        | [] -> ())
  in
  trace 0;
  List.rev !order

(* The loops are read before threading, from the pipeline's snapshot.
   Threading removes no block from a loop body, and a latch or header it
   retargets is still in the body. *)
let run (cfg : Mir.Cfg.analysis) (f : Ir.func) : bool =
  let loops = Mir.Cfg.loops cfg f in
  let threaded = thread f in
  let depth = Array.make (Array.length f.Ir.blocks) 0 in
  List.iter
    (fun (l : Mir.Cfg.loop) -> Iset.iter (fun b -> depth.(b) <- depth.(b) + 1) l.Mir.Cfg.body)
    loops;
  let rotated = rotate f loops in
  (* Step 4. *)
  let blocks = f.Ir.blocks in
  let order = Array.of_list (place f ~depth) in
  let remap = Array.make (Array.length blocks) (-1) in
  Array.iteri (fun i b -> remap.(b) <- i) order;
  f.Ir.blocks <- Array.map (fun b -> blocks.(b)) order;
  Array.iter
    (fun (blk : Ir.block) -> blk.Ir.term <- Ir.map_term_targets (fun l -> remap.(l)) blk.Ir.term)
    f.Ir.blocks;
  threaded || rotated || order <> Array.init (Array.length blocks) Fun.id
