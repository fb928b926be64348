(** CFG utilities shared by the optimizer: predecessors, reverse postorder,
    dominators, natural-loop discovery, and block surgery (preheaders). *)

open Support
module Iset = Ints.Iset

let predecessors (f : Ir.func) : int list array =
  let nb = Array.length f.Ir.blocks in
  let preds = Array.make nb [] in
  Array.iteri
    (fun b (blk : Ir.block) ->
      List.iter (fun s -> preds.(s) <- b :: preds.(s)) (Ir.term_succs blk.Ir.term))
    f.Ir.blocks;
  preds

let reverse_postorder (f : Ir.func) : int array =
  let blocks = f.Ir.blocks in
  let nb = Array.length blocks in
  let visited = Array.make nb false in
  (* Filled from the end: the block finished last comes first. *)
  let order = Array.make nb 0 in
  let next = ref nb in
  let rec dfs b =
    if not visited.(b) then begin
      visited.(b) <- true;
      (match blocks.(b).Ir.term with
      | Ir.Jmp l -> dfs l
      | Ir.Cjmp (_, _, _, t, e) ->
          dfs t;
          dfs e
      | Ir.Ret _ | Ir.Unreachable | Ir.Trap _ -> ());
      decr next;
      order.(!next) <- b
    end
  in
  dfs 0;
  Array.sub order !next (nb - !next)

(** Extended basic blocks, for the local passes that carry what they know
    across a block boundary. [ebb_walk f ~init visit] visits the reachable
    blocks in reverse postorder, then the unreachable ones, and starts each
    from the state [visit] returned for its only reachable predecessor, or
    from [init] when it has none or several. That predecessor dominates
    the block and is its only way in, so what held at its exit holds at
    the block's entry; an unreachable predecessor never runs, so it does
    not count. *)
let ebb_walk (f : Ir.func) ~(init : 'a) (visit : 'a -> Ir.block -> 'a) : unit =
  let blocks = f.Ir.blocks in
  let nb = Array.length blocks in
  let rpo = reverse_postorder f in
  (* [pred.(b)]: the only reachable predecessor; -1 none, -2 several. *)
  let pred = Array.make nb (-1) in
  let edge p s = pred.(s) <- (if pred.(s) = -1 || pred.(s) = p then p else -2) in
  Array.iter
    (fun b ->
      match blocks.(b).Ir.term with
      | Ir.Jmp l -> edge b l
      | Ir.Cjmp (_, _, _, t, e) ->
          edge b t;
          edge b e
      | Ir.Ret _ | Ir.Unreachable | Ir.Trap _ -> ())
    rpo;
  let visited = Array.make nb false and exits = Array.make nb init in
  Array.iter
    (fun b ->
      let p = pred.(b) in
      let entry = if b <> 0 && p >= 0 && visited.(p) then exits.(p) else init in
      exits.(b) <- visit entry blocks.(b);
      visited.(b) <- true)
    rpo;
  Array.iteri (fun b seen -> if not seen then ignore (visit init blocks.(b))) visited

(** The forward must-dataflow solver that {!Opt.Nonnil} and
    {!Opt.Barrier_elim} share; each brings its own facts. [forward f
    ~entry ~meet ~equal ~transfer] gives each block's state at its entry
    and at its exit. At the entry block's entry it is [entry], met with
    what reaches it along an edge; at any other block's, the meet over
    its incoming edges. [transfer b s] is the state at the end of block
    [b] entered with [s], and [edge p b s] what holds on the edge from [p]
    to [b] when [p] ends with [s] ([None] when that edge is never taken;
    by default, [s]). A predecessor not yet visited, or whose edge is
    never taken, constrains nothing, so a loop's back edge first assumes
    the best and the states only fall. A block that no taken edge from
    the entry reaches has no states ([None]). Blocks are visited in
    reverse postorder until nothing changes: once when no edge goes
    backwards. *)
let forward ?(edge = fun _ _ s -> Some s) (f : Ir.func) ~(entry : 'a) ~(meet : 'a -> 'a -> 'a)
    ~(equal : 'a -> 'a -> bool) ~(transfer : int -> 'a -> 'a) :
    'a option array * 'a option array =
  let nb = Array.length f.Ir.blocks in
  let rpo = reverse_postorder f and preds = predecessors f in
  let index = Array.make nb (-1) in
  Array.iteri (fun i b -> index.(b) <- i) rpo;
  let back = Array.exists (fun b -> List.exists (fun p -> index.(p) >= index.(b)) preds.(b)) rpo in
  let ins = Array.make nb None and outs = Array.make nb None in
  (* [acc] met with what the edges from [ps] into [b] carry. *)
  let rec meet_edges b acc = function
    | [] -> acc
    | p :: ps -> (
        match outs.(p) with
        | None -> meet_edges b acc ps
        | Some s -> (
            match (edge p b s, acc) with
            | None, _ -> meet_edges b acc ps
            | (Some _ as x), None -> meet_edges b x ps
            | Some x, Some a -> meet_edges b (Some (meet a x)) ps))
  in
  let pass () =
    let changed = ref false in
    Array.iter
      (fun b ->
        match meet_edges b (if b = 0 then Some entry else None) preds.(b) with
        | None -> ()
        | Some s as i ->
            ins.(b) <- i;
            let out = transfer b s in
            (match outs.(b) with Some o when equal o out -> () | _ -> changed := true);
            outs.(b) <- Some out)
      rpo;
    !changed
  in
  if pass () && back then while pass () do () done;
  (ins, outs)

(** Immediate dominators (Cooper–Harvey–Kennedy) over [preds]; the entry
    maps to itself and unreachable blocks to -1. *)
let dominators_of (f : Ir.func) (preds : int list array) : int array =
  let nb = Array.length f.Ir.blocks in
  let rpo = reverse_postorder f in
  let rpo_num = Array.make nb (-1) in
  Array.iteri (fun i b -> rpo_num.(b) <- i) rpo;
  let idom = Array.make nb (-1) in
  idom.(0) <- 0;
  let rec intersect a b =
    if a = b then a
    else if rpo_num.(a) > rpo_num.(b) then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun b ->
        if b <> 0 then begin
          let ps = List.filter (fun p -> idom.(p) <> -1) preds.(b) in
          match ps with
          | [] -> ()
          | p0 :: rest ->
              let new_idom = List.fold_left intersect p0 rest in
              if idom.(b) <> new_idom then begin
                idom.(b) <- new_idom;
                changed := true
              end
        end)
      rpo
  done;
  idom

let dominators (f : Ir.func) : int array = dominators_of f (predecessors f)

let dominates idom a b =
  (* does a dominate b? *)
  let rec up x = if x = a then true else if x = idom.(x) then false else up idom.(x) in
  if idom.(b) = -1 then false else up b

(** A natural loop: header plus body block set (including the header). *)
type loop = { header : int; body : Iset.t }

let loops_of (f : Ir.func) : loop list =
  let preds = predecessors f in
  let idom = dominators_of f preds in
  let loops = Hashtbl.create 8 in
  (* back edge: b -> h where h dominates b *)
  Array.iteri
    (fun b (blk : Ir.block) ->
      List.iter
        (fun h ->
          if idom.(b) <> -1 && dominates idom h b then begin
            (* collect the natural loop of this back edge *)
            let body = ref (Iset.add h (Iset.singleton b)) in
            let stack = ref [ b ] in
            while !stack <> [] do
              let x = List.hd !stack in
              stack := List.tl !stack;
              if x <> h then
                List.iter
                  (fun p ->
                    if not (Iset.mem p !body) then begin
                      body := Iset.add p !body;
                      stack := p :: !stack
                    end)
                  preds.(x)
            done;
            let existing =
              match Hashtbl.find_opt loops h with Some s -> s | None -> Iset.empty
            in
            Hashtbl.replace loops h (Iset.union existing !body)
          end)
        (Ir.term_succs blk.Ir.term))
    f.Ir.blocks;
  Hashtbl.fold (fun header body acc -> { header; body } :: acc) loops []

(* ------------------------------------------------------------------ *)
(* Shared loop analysis                                                *)
(* ------------------------------------------------------------------ *)

(** Natural loops, shared by the loop passes and recomputed only when the
    CFG has changed since the last query. The CFG is a function of every
    block's successors, so a snapshot of them tells whether the cached
    loops are what {!natural_loops} returns; a pass that only rewrites a
    terminator's operands leaves it valid. *)
type analysis = {
  mutable succs : int array; (* snapshot: block [b]'s successors at [2b], [2b+1], or -1 *)
  mutable loops : loop list;
  mutable computed : int; (* queries that recomputed *)
  mutable reused : int; (* queries answered from the snapshot *)
}

let analysis () = { succs = [||]; loops = []; computed = 0; reused = 0 }

(* Successor [i] (0 or 1) of a terminator, or -1. *)
let succ (t : Ir.term) i =
  match (t, i) with
  | Ir.Jmp l, 0 | Ir.Cjmp (_, _, _, l, _), 0 | Ir.Cjmp (_, _, _, _, l), _ -> l
  | (Ir.Jmp _ | Ir.Ret _ | Ir.Unreachable | Ir.Trap _), _ -> -1

let same_succs (blocks : Ir.block array) succs =
  let rec go i = i < 0 || (succs.(i) = succ blocks.(i / 2).Ir.term (i mod 2) && go (i - 1)) in
  2 * Array.length blocks = Array.length succs && go (Array.length succs - 1)

let refresh (a : analysis) (f : Ir.func) =
  let blocks = f.Ir.blocks in
  if same_succs blocks a.succs then a.reused <- a.reused + 1
  else begin
    a.succs <- Array.init (2 * Array.length blocks) (fun i -> succ blocks.(i / 2).Ir.term (i mod 2));
    a.loops <- loops_of f;
    a.computed <- a.computed + 1
  end

(** [natural_loops f], from the snapshot when the CFG is unchanged. *)
let loops (a : analysis) (f : Ir.func) : loop list =
  refresh a f;
  a.loops

let natural_loops (f : Ir.func) : loop list = loops (analysis ()) f

(** The loop passes' shared walk: visit each loop whose header is not the
    entry block, once per header, re-reading the loops after every visit
    since a visit may change the CFG. True if any visit returned true. *)
let visit_loops (a : analysis) (f : Ir.func) (visit : loop -> bool) : bool =
  let fresh processed l = l.header <> 0 && not (Iset.mem l.header processed) in
  let rec go processed changed =
    match List.find_opt (fresh processed) (loops a f) with
    | None -> changed
    | Some l ->
        let c = visit l in
        go (Iset.add l.header processed) (c || changed)
  in
  go Iset.empty false

(** [unwritten prog f l loc]: no instruction of loop [l] may write [loc]
    ({!Ir.may_write}). Applied to the loop alone, it collects the loop's
    writes once for any number of locations. *)
let unwritten (prog : Ir.program) (f : Ir.func) (l : loop) : Ir.loc -> bool =
  let writes =
    Iset.fold
      (fun b acc -> List.filter Ir.writes f.Ir.blocks.(b).Ir.instrs @ acc)
      l.body []
  in
  fun loc -> not (List.exists (fun i -> Ir.may_write prog f i loc) writes)

(* ------------------------------------------------------------------ *)
(* Block surgery                                                       *)
(* ------------------------------------------------------------------ *)

(** Append a new block; returns its label. *)
let add_block (f : Ir.func) ~(instrs : Ir.instr list) ~(term : Ir.term) : int =
  let nb = Array.length f.Ir.blocks in
  f.Ir.blocks <- Array.append f.Ir.blocks [| { Ir.instrs; term } |];
  nb

let retarget_term (t : Ir.term) ~from ~dest : Ir.term =
  Ir.map_term_targets (fun l -> if l = from then dest else l) t

(** Insert a preheader for a loop: a fresh empty block through which every
    edge into the header from outside the loop is redirected. Returns its
    label. The loop's [body] set remains valid (the preheader is outside). *)
let insert_preheader (f : Ir.func) (l : loop) : int =
  let ph = add_block f ~instrs:[] ~term:(Ir.Jmp l.header) in
  Array.iteri
    (fun b (blk : Ir.block) ->
      if b <> ph && not (Iset.mem b l.body) then
        blk.Ir.term <- retarget_term blk.Ir.term ~from:l.header ~dest:ph)
    f.Ir.blocks;
  ph
