(* References for the optimizer's shared analyses, test-only.

   [dce] is the dead code elimination Opt.Dce replaced: seed the needed
   set, then rescan the whole function until it stops growing. [check]
   drives the O1 pipeline over a lowered program pass by pass and reports
   the first place where Opt.Dce removed different instructions than
   [dce] would have, or where the pipeline's cached loops differ from a
   fresh Cfg.natural_loops. *)

module Ir = Mir.Ir
module Iset = Support.Ints.Iset

let has_side_effects = Opt.Dce.has_side_effects

let dce (f : Ir.func) : bool =
  (* Seed: temps read by side-effecting instructions and terminators. *)
  let needed = ref Iset.empty in
  let note (o : Ir.operand) =
    match o with Ir.Otemp t -> needed := Iset.add t !needed | Ir.Oimm _ -> ()
  in
  let note_deriv (d : Mir.Deriv.t) =
    List.iter
      (function
        | Mir.Deriv.Btemp t -> needed := Iset.add t !needed
        | Mir.Deriv.Blocal _ -> ())
      (Mir.Deriv.bases d)
  in
  (* Bases of derived slots are needed as long as the slot may be live —
     conservatively, always. *)
  Array.iter
    (fun (li : Ir.local_info) ->
      match li.Ir.l_slot with
      | Ir.Sderived d -> note_deriv d
      | Ir.Sambig a -> List.iter (fun (_, d) -> note_deriv d) a.Ir.cases
      | Ir.Sscalar | Ir.Sptr | Ir.Saddr | Ir.Saggregate _ -> ())
    f.Ir.locals;
  Array.iter
    (fun (blk : Ir.block) ->
      List.iter
        (fun i -> if has_side_effects i then List.iter note (Ir.instr_uses i))
        blk.Ir.instrs;
      List.iter note (Ir.term_uses blk.Ir.term))
    f.Ir.blocks;
  (* Fixpoint: a needed temp's defining instructions' uses are needed, and
     the bases of a needed derived temp are needed. *)
  let changed = ref true in
  while !changed do
    changed := false;
    let before = Iset.cardinal !needed in
    Array.iter
      (fun (blk : Ir.block) ->
        List.iter
          (fun i ->
            match Ir.instr_def i with
            | Some d when Iset.mem d !needed -> List.iter note (Ir.instr_uses i)
            | _ -> ())
          blk.Ir.instrs)
      f.Ir.blocks;
    Iset.iter
      (fun t ->
        match Ir.temp_kind f t with
        | Ir.Kderived d -> note_deriv d
        | Ir.Kscalar | Ir.Kptr | Ir.Kstack -> ())
      !needed;
    if Iset.cardinal !needed <> before then changed := true
  done;
  let removed = ref false in
  Array.iter
    (fun (blk : Ir.block) ->
      let keep i =
        has_side_effects i
        ||
        match Ir.instr_def i with
        | Some d -> Iset.mem d !needed
        | None -> true
      in
      let filtered = List.filter keep blk.Ir.instrs in
      if List.length filtered <> List.length blk.Ir.instrs then begin
        removed := true;
        blk.Ir.instrs <- filtered
      end)
    f.Ir.blocks;
  !removed

(* Loops as comparable values: body sets as sorted lists, in list order. *)
let loops_repr ls =
  List.map (fun (l : Mir.Cfg.loop) -> (l.Mir.Cfg.header, Iset.elements l.Mir.Cfg.body)) ls

(* A copy whose blocks DCE can rewrite without touching [f]'s. *)
let copy (f : Ir.func) =
  let block (b : Ir.block) = { b with Ir.instrs = b.Ir.instrs } in
  { f with Ir.blocks = Array.map block f.Ir.blocks }

let instrs (f : Ir.func) = Array.map (fun (b : Ir.block) -> b.Ir.instrs) f.Ir.blocks

let check (prog : Ir.program) : string option =
  let problem = ref None in
  let report fmt =
    Printf.ksprintf (fun s -> if !problem = None then problem := Some s) fmt
  in
  Array.iter
    (fun (f : Ir.func) ->
      let wrap name cfg pass =
        let before = if name = "opt.dce" then Some (copy f) else None in
        let changed = pass () in
        (match before with
        | Some g ->
            let changed' = dce g in
            if changed <> changed' || instrs g <> instrs f then
              report "%s: the worklist DCE and the fixpoint disagree" f.Ir.fname
        | None -> ());
        if loops_repr (Mir.Cfg.loops cfg f) <> loops_repr (Mir.Cfg.natural_loops f) then
          report "%s: stale loops after %s" f.Ir.fname name;
        changed
      in
      Opt.Pipeline.func ~wrap prog f)
    prog.Ir.funcs;
  !problem

(* Lower [src] as [Driver.Compile.to_mir] does before optimizing, and
   check the pipeline over it. *)
let check_source src =
  check
    (Mir.Lower.program ~checks:Driver.Compile.default_options.Driver.Compile.checks
       (M3l.Typecheck.check_source src))
