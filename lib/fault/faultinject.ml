(** Fault injection against the encoded gc tables.

    The integrity layer's claim is that no corruption of the table bytes
    can take the runtime down ungracefully: any mutation is either
    rejected with a typed error ([Decode.Table_corrupt] at load, a typed
    [Vm_error] at collection time), flagged by the heap verifier, or
    provably without effect (the mutated stream decodes to the same
    tables, so the run is bit-identical). This module tests the claim
    mechanically: compile a real program once, then mutate its encoded
    streams — bit flips, byte rewrites, truncations, continuation-bit
    padding, byte swaps — and classify what each mutated image does.

    Two modes:
    - [cross_check = true] (the default, matching image load): the
      mutated tables first pass [Decode.validate_tables ~against:rawmaps].
      Any mutation with a semantic effect is rejected there; a mutation
      that survives must decode identically, so the run must match the
      reference output exactly. Divergence, a crash or a hang is a
      harness failure.
    - [cross_check = false]: load validation is skipped entirely, so
      corrupt tables reach the collector. This exercises the decoder's
      own totality and the runtime verifier; crashes and hangs are still
      failures, but a silently-diverging run is only counted (a single
      bit flip in a liveness bitmap can be locally undetectable — the
      reason image load keeps the redundancy check on). *)

module E = Gcmaps.Encode
module D = Gcmaps.Decode
module P = Support.Prng

(* ------------------------------------------------------------------ *)
(* Mutations                                                           *)
(* ------------------------------------------------------------------ *)

type mutation = {
  m_name : string;
  m_fid : int;
  m_pos : int; (* stream byte the mutation anchors at *)
  m_apply : Bytes.t -> Bytes.t; (* pure: input is already a copy *)
}

let describe m = Printf.sprintf "%s@proc%d+%d" m.m_name m.m_fid m.m_pos

(* Pick a procedure with a non-empty stream, biased toward bigger streams
   (more interesting bytes), then a mutation kind and a position. *)
let random_mutation rng (tables : E.program_tables) : mutation option =
  let candidates =
    Array.to_list tables.E.procs
    |> List.filter (fun ep -> Bytes.length ep.E.ep_stream > 0)
  in
  match candidates with
  | [] -> None
  | _ ->
      let ep = List.nth candidates (P.int rng (List.length candidates)) in
      let fid = ep.E.ep_fid in
      let len = Bytes.length ep.E.ep_stream in
      let pos = P.int rng len in
      let m =
        match P.int rng 6 with
        | 0 ->
            let bit = P.int rng 8 in
            {
              m_name = Printf.sprintf "bitflip(b%d)" bit;
              m_fid = fid;
              m_pos = pos;
              m_apply =
                (fun b ->
                  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 lsl bit)));
                  b);
            }
        | 1 ->
            let v = P.int rng 256 in
            {
              m_name = Printf.sprintf "byteset(0x%02x)" v;
              m_fid = fid;
              m_pos = pos;
              m_apply =
                (fun b ->
                  Bytes.set b pos (Char.chr v);
                  b);
            }
        | 2 ->
            (* Truncation: drop everything from [pos] on. *)
            { m_name = "truncate"; m_fid = fid; m_pos = pos; m_apply = (fun b -> Bytes.sub b 0 pos) }
        | 3 ->
            (* Varint padding: splice in continuation bytes, the classic
               unterminated/overlong-encoding attack. *)
            let n = 1 + P.int rng 12 in
            {
              m_name = Printf.sprintf "pad(0x80*%d)" n;
              m_fid = fid;
              m_pos = pos;
              m_apply =
                (fun b ->
                  let out = Bytes.create (Bytes.length b + n) in
                  Bytes.blit b 0 out 0 pos;
                  Bytes.fill out pos n '\x80';
                  Bytes.blit b pos out (pos + n) (Bytes.length b - pos);
                  out);
            }
        | 4 ->
            (* Swap two stream bytes — e.g. a descriptor with a payload
               byte, reordering tables without changing the multiset. *)
            let pos2 = P.int rng len in
            {
              m_name = Printf.sprintf "swap(%d)" pos2;
              m_fid = fid;
              m_pos = pos;
              m_apply =
                (fun b ->
                  let x = Bytes.get b pos and y = Bytes.get b pos2 in
                  Bytes.set b pos y;
                  Bytes.set b pos2 x;
                  b);
            }
        | _ ->
            (* Descriptor-style rewrite: force the 2-bit fields into a
               chosen state (present/same/undefined-3) at a random byte. *)
            let f = P.int rng 4 in
            let v = f lor (f lsl 2) lor (f lsl 4) in
            {
              m_name = Printf.sprintf "descswap(%d)" f;
              m_fid = fid;
              m_pos = pos;
              m_apply =
                (fun b ->
                  Bytes.set b pos (Char.chr v);
                  b);
            }
      in
      Some m

let mutate_tables (tables : E.program_tables) (m : mutation) : E.program_tables =
  let procs =
    Array.map
      (fun ep ->
        if ep.E.ep_fid <> m.m_fid then ep
        else { ep with E.ep_stream = m.m_apply (Bytes.copy ep.E.ep_stream) })
      tables.E.procs
  in
  { tables with E.procs }

(* ------------------------------------------------------------------ *)
(* Outcomes                                                            *)
(* ------------------------------------------------------------------ *)

type outcome =
  | Rejected_load (* Table_corrupt from the load-time cross-check *)
  | Rejected_run (* typed Corrupt_table / Bad_root / other Vm_error mid-run *)
  | Verifier_flagged (* the heap verifier reported violations *)
  | Benign (* ran to completion with the reference output *)
  | Diverged (* ran to completion with different output — silent mis-decode *)
  | Hung (* exceeded the fuel budget *)
  | Crashed of string (* any untyped exception: the bug class this layer removes *)

let outcome_name = function
  | Rejected_load -> "rejected_load"
  | Rejected_run -> "rejected_run"
  | Verifier_flagged -> "verifier_flagged"
  | Benign -> "benign"
  | Diverged -> "diverged"
  | Hung -> "hung"
  | Crashed _ -> "crashed"

type case = { mutation : string; outcome : outcome }

type sweep = {
  program : string;
  config : string;
  iterations : int;
  counts : (string * int) list; (* outcome name -> count *)
  failures : case list; (* crashed/hung (+ diverged when cross-checking) *)
}

let count sweep name = try List.assoc name sweep.counts with Not_found -> 0

(* ------------------------------------------------------------------ *)
(* Running one mutated image                                           *)
(* ------------------------------------------------------------------ *)

(* Rebuild the image around mutated tables. The decode cache must be
   recreated: it memoizes decoded streams, and the point is to decode the
   mutated ones. *)
let with_tables (img : Vm.Image.t) (tables : E.program_tables) : Vm.Image.t =
  { img with Vm.Image.tables; decode_cache = Gcmaps.Decode_cache.create tables }

let run_mutated ?collector ~(reference : string) ~fuel (img : Vm.Image.t) : outcome =
  let st = Vm.Interp.create img in
  (* The collector is resolved and installed as for the reference run, so
     it (and its verifier checks) decodes the mutated tables. *)
  ignore (Driver.Compile.install ?collector st);
  match Vm.Interp.run ~fuel st with
  | () -> if Vm.Interp.output st = reference then Benign else Diverged
  | exception Vm.Vm_error.Error e -> (
      match e with
      | Vm.Vm_error.Verify_failed _ -> Verifier_flagged
      | Vm.Vm_error.Out_of_fuel _ -> Hung
      | _ -> Rejected_run)
  | exception Vm.Interp.Guest_error _ ->
      (* A corrupt table can redirect control into a guest-level trap;
         that is still a clean, reported rejection. *)
      Rejected_run
  | exception D.Table_corrupt _ -> Rejected_run
  | exception e -> Crashed (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Sweeps                                                              *)
(* ------------------------------------------------------------------ *)

type target = {
  t_name : string;
  t_source : string;
  t_heap : int; (* small enough to force collections *)
}

(* Small-heap variants of the paper's benchmarks: every run collects many
   times, so mutated tables actually get decoded. *)
let default_targets =
  [
    { t_name = "fieldlist"; t_source = Programs.Fieldlist_src.src; t_heap = 300 };
    { t_name = "ambig"; t_source = Programs.Ambig_src.src; t_heap = 400 };
    {
      t_name = "destroy-small";
      t_source = Programs.Destroy_src.make ~branch:3 ~depth:4 ~replace_depth:2 ~iterations:80;
      t_heap = 1200;
    };
  ]

let all_configs : (string * E.scheme * E.options) list =
  [
    ("delta+pack+prev", E.Delta_main, { E.packing = true; previous = true });
    ("delta+plain", E.Delta_main, { E.packing = false; previous = false });
    ("full+pack+prev", E.Full_info, { E.packing = true; previous = true });
    ("full+plain", E.Full_info, { E.packing = false; previous = false });
  ]

let with_verifier f =
  let was = Gc.Verify.post_enabled () in
  Gc.Verify.set_post true;
  Fun.protect ~finally:(fun () -> Gc.Verify.set_post was) f

(** Run [iterations] random mutations of [target] compiled under
    [config], on the switch interpreter under [collector] (the precise
    one by default). The image is compiled once; each iteration mutates
    a copy of its tables. *)
let sweep_target ?(cross_check = true) ?collector ~seed ~iterations (target : target)
    ((cfg_name, scheme, opts) : string * E.scheme * E.options) : sweep =
  let options =
    {
      Driver.Compile.default_options with
      heap_words = target.t_heap;
      scheme;
      table_opts = opts;
    }
  in
  let img = Driver.Compile.compile ~options target.t_source in
  let reference = Driver.Compile.run ?collector ~threaded:false img in
  (* Generous but bounded budget: a hang is a decode loop, not a slow
     program. *)
  let fuel = (4 * reference.Driver.Compile.instructions) + 1_000_000 in
  let rng = P.create seed in
  let counts = Hashtbl.create 8 in
  let bump o = Hashtbl.replace counts o (1 + try Hashtbl.find counts o with Not_found -> 0) in
  let failures = ref [] in
  with_verifier (fun () ->
      for _i = 1 to iterations do
        match random_mutation rng img.Vm.Image.tables with
        | None -> bump "benign" (* nothing to mutate: empty streams *)
        | Some m ->
            let tables = mutate_tables img.Vm.Image.tables m in
            let outcome =
              if cross_check then
                match D.validate_tables ~against:img.Vm.Image.rawmaps tables with
                | () ->
                    run_mutated ?collector ~reference:reference.Driver.Compile.output ~fuel
                      (with_tables img tables)
                | exception D.Table_corrupt _ -> Rejected_load
                | exception e -> Crashed (Printexc.to_string e)
              else
                run_mutated ?collector ~reference:reference.Driver.Compile.output ~fuel
                  (with_tables img tables)
            in
            bump (outcome_name outcome);
            let is_failure =
              match outcome with
              | Crashed _ | Hung -> true
              | Diverged -> cross_check (* silent mis-decode past the cross-check *)
              | _ -> false
            in
            if is_failure then failures := { mutation = describe m; outcome } :: !failures
      done);
  {
    program = target.t_name;
    config =
      Printf.sprintf "%s/%s"
        (Driver.Compile.Config.collector_name
           (Option.value collector ~default:Driver.Compile.Precise))
        cfg_name;
    iterations;
    counts = Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts [];
    failures = List.rev !failures;
  }

(** The full matrix: every target × every scheme/packing config × the
    precise, generational and incremental collectors. Each collector
    meets the same mutations. *)
let sweep_all ?(cross_check = true) ?(targets = default_targets) ~seed ~iterations_per_config ()
    : sweep list =
  List.concat_map
    (fun collector ->
      List.concat_map
        (fun t ->
          List.mapi
            (fun i cfg ->
              sweep_target ~cross_check ~collector
                ~seed:(seed + (1000 * i) + Hashtbl.hash t.t_name)
                ~iterations:iterations_per_config t cfg)
            all_configs)
        targets)
    [ Driver.Compile.Precise; Driver.Compile.Generational; Driver.Compile.Incremental ]

let total_failures sweeps = List.fold_left (fun a s -> a + List.length s.failures) 0 sweeps

(* ------------------------------------------------------------------ *)
(* Runtime fault modes: collection storms                              *)
(* ------------------------------------------------------------------ *)

(* Where the table-corruption sweeps attack the encoded data, these modes
   attack the running collector itself, through the seam every machine
   already has: the gc-point poll ([Vm.Interp.inc_slice]), which both
   engines call at every allocation and every loop check with [pc] on
   the call. The paper's tables make a collection legal at any gc-point,
   so a storm wraps the poll and forces collections there. The claim
   under test: the extra collections change the collection count but
   nothing observable — reference output, verifier clean. *)

type runtime_mode =
  | Alloc_storm of { every : int } (* a collection at every Nth allocation *)
  | Loop_storm (* a collection at every loop gc-point (§5.3) *)

let runtime_mode_name = function
  | Alloc_storm { every } -> Printf.sprintf "alloc-storm(every=%d)" every
  | Loop_storm -> "loop-storm"

(** The gc-point a poll is called at, read from the instruction at [pc]:
    an allocation, with the words it asks for (its arguments are still
    pushed), or a loop check. *)
type gc_point = Alloc of int | Loop_check

let gc_point (st : Vm.Interp.t) =
  let arg i = Vm.Interp.read st (Vm.Interp.sp st + i) in
  let words ~length =
    let img = st.Vm.Interp.image in
    Rt.Typedesc.words img.Vm.Image.layouts.Rt.Typedesc.sizes.(arg 0) ~length
  in
  match st.Vm.Interp.image.Vm.Image.code.(st.Vm.Interp.pc) with
  | Machine.Insn.Call (Machine.Insn.Crt (Mir.Ir.Rt_alloc _)) -> Alloc (words ~length:0)
  | Machine.Insn.Call (Machine.Insn.Crt (Mir.Ir.Rt_alloc_open _)) ->
      Alloc (words ~length:(arg 1))
  | _ -> Loop_check

(** Arm [mode] against a machine about to run, after its collector is
    installed: the storm wraps the installed poll, which still runs
    first. An allocation storm passes the allocation's size as
    [~needed], as the allocation's own slow path would. *)
let arm_runtime (st : Vm.Interp.t) mode =
  let poll = st.Vm.Interp.inc_slice in
  let collect (st : Vm.Interp.t) ~needed =
    match st.Vm.Interp.collector with Some c -> c st ~needed | None -> ()
  in
  st.Vm.Interp.inc_slice <-
    Some
      (fun st ->
        (match poll with Some f -> f st | None -> ());
        match (mode, gc_point st) with
        | Alloc_storm { every }, Alloc size
          when (st.Vm.Interp.alloc_count + 1) mod every = 0 ->
            collect st ~needed:size
        | Loop_storm, Loop_check -> collect st ~needed:0
        | _ -> ())

let run_runtime_case ~reference ~fuel img mode : outcome =
  let st = Vm.Interp.create img in
  Gc.Cheney.install st;
  arm_runtime st mode;
  match Vm.Interp.run ~fuel st with
  | () -> if Vm.Interp.output st = reference then Benign else Diverged
  | exception Vm.Vm_error.Error e -> (
      match e with
      | Vm.Vm_error.Verify_failed _ -> Verifier_flagged
      | Vm.Vm_error.Out_of_fuel _ -> Hung
      | _ -> Rejected_run)
  | exception Vm.Interp.Guest_error _ -> Rejected_run
  | exception e -> Crashed (Printexc.to_string e)

(* The two images a runtime sweep runs: unoptimized and O1. O1 code keeps
   locals in registers across gc-points, so only it exercises the
   register tables at every collection. *)
let levels = [ false; true ]

let level_name optimize = if optimize then "O1" else "O0"

(** Allocation-storm sweep over one target compiled at [optimize], a
    forced collection every 7th allocation with the post-collection
    verifier armed. The expected outcome is [Benign]; crash, hang,
    divergence and verifier flags are failures. *)
let runtime_sweep ~optimize (target : target) : sweep =
  let options =
    { Driver.Compile.default_options with heap_words = target.t_heap; optimize }
  in
  let img = Driver.Compile.compile ~options target.t_source in
  with_verifier @@ fun () ->
  let fuel = 200_000_000 in
  let reference =
    let st = Vm.Interp.create img in
    Gc.Cheney.install st;
    Vm.Interp.run ~fuel st;
    Vm.Interp.output st
  in
  let mode = Alloc_storm { every = 7 } in
  let outcome = run_runtime_case ~reference ~fuel img mode in
  let failures =
    match outcome with
    | Crashed _ | Hung | Diverged | Verifier_flagged ->
        [ { mutation = runtime_mode_name mode; outcome } ]
    | _ -> []
  in
  {
    program = target.t_name;
    config = "runtime " ^ level_name optimize;
    iterations = 1;
    counts = [ (outcome_name outcome, 1) ];
    failures;
  }

(** The allocation-storm sweep over the default targets, each at O0 and
    at O1. *)
let runtime_sweep_all ?(targets = default_targets) () : sweep list =
  List.concat_map (fun t -> List.map (fun optimize -> runtime_sweep ~optimize t) levels) targets

(* ------------------------------------------------------------------ *)
(* Incremental-collector interleaving faults                           *)
(* ------------------------------------------------------------------ *)

(* The incremental collector's bug surface is the interleaving: a slice
   at the worst gc-point, a mark stack too small to hold the frontier, a
   slice cut short by the clock. Each mode perturbs the slice schedule as
   far as the engine allows and asserts the STW contract anyway:
   reference output and instruction count (slices execute no guest
   instructions), with the heap verifier — including its tri-color check — armed at every slice
   boundary. The final heap image is NOT compared: a different slice
   schedule legitimately frees and reuses blocks in a different order,
   which is exactly why output/icount are the observable contract. *)

type incremental_mode =
  | Slice_storm (* a slice at every gc-point, through the wrapped poll *)
  | Mark_spill of { cap : int } (* tiny mark stack: spill + rescan paths *)
  | Tiny_budget of { us : int } (* wall-clock-truncated slices *)

let incremental_mode_name = function
  | Slice_storm -> "slice-storm"
  | Mark_spill { cap } -> Printf.sprintf "mark-spill(cap=%d)" cap
  | Tiny_budget { us } -> Printf.sprintf "tiny-budget(%dus)" us

let run_incremental_case ~reference ~ref_icount ~fuel img mode : outcome =
  let st = Vm.Interp.create img in
  let gray_cap = match mode with Mark_spill { cap } -> Some cap | _ -> None in
  let pause_budget_us =
    match mode with Tiny_budget { us } -> Some us | _ -> None
  in
  ignore (Gc.Incremental.install ?gray_cap ?pause_budget_us st);
  if mode = Slice_storm then st.Vm.Interp.inc_slice <- Some Gc.Incremental.slice;
  match Vm.Interp.run ~fuel st with
  | () ->
      if Vm.Interp.output st = reference && st.Vm.Interp.icount = ref_icount
      then Benign
      else Diverged
  | exception Vm.Vm_error.Error e -> (
      match e with
      | Vm.Vm_error.Verify_failed _ -> Verifier_flagged
      | Vm.Vm_error.Out_of_fuel _ -> Hung
      | _ -> Rejected_run)
  | exception Vm.Interp.Guest_error _ -> Rejected_run
  | exception e -> Crashed (Printexc.to_string e)

(** Interleaving-fault sweep over one target under the incremental
    collector, verifier armed. Expected outcome for every mode is
    [Benign]; anything in the failure classes (including a verifier
    flag) is a real interleaving bug. The heap is doubled relative to
    the STW sweeps: the non-moving collector cannot compact, and the
    fragmentation headroom keeps tiny-heap targets honest about testing
    the schedule rather than the out-of-memory path. [optimize] picks the
    image, as for {!runtime_sweep}. *)
let incremental_sweep ~optimize (target : target) : sweep =
  let options =
    { Driver.Compile.default_options with heap_words = target.t_heap * 2; optimize }
  in
  let img = Driver.Compile.compile ~options target.t_source in
  with_verifier @@ fun () ->
  let fuel = 200_000_000 in
  let reference, ref_icount =
    let st = Vm.Interp.create img in
    Gc.Cheney.install st;
    Vm.Interp.run ~fuel st;
    (Vm.Interp.output st, st.Vm.Interp.icount)
  in
  let cases =
    [
      Slice_storm;
      Mark_spill { cap = 1 };
      Mark_spill { cap = 8 };
      Tiny_budget { us = 50 };
    ]
  in
  let counts = Hashtbl.create 8 in
  let bump o = Hashtbl.replace counts o (1 + try Hashtbl.find counts o with Not_found -> 0) in
  let failures = ref [] in
  List.iter
    (fun mode ->
      let outcome = run_incremental_case ~reference ~ref_icount ~fuel img mode in
      bump (outcome_name outcome);
      match outcome with
      | Crashed _ | Hung | Diverged | Verifier_flagged | Rejected_run ->
          failures := { mutation = incremental_mode_name mode; outcome } :: !failures
      | _ -> ())
    cases;
  {
    program = target.t_name;
    config = "incremental " ^ level_name optimize;
    iterations = List.length cases;
    counts = Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts [];
    failures = List.rev !failures;
  }

(** The incremental interleaving matrix over the default targets, each at
    O0 and at O1. *)
let incremental_sweep_all ?(targets = default_targets) () : sweep list =
  List.concat_map
    (fun t -> List.map (fun optimize -> incremental_sweep ~optimize t) levels)
    targets

(* ------------------------------------------------------------------ *)
(* JSON report                                                         *)
(* ------------------------------------------------------------------ *)

let json_of_sweep (s : sweep) : Telemetry.Json.t =
  Telemetry.Json.(
    Obj
      [
        ("program", Str s.program);
        ("config", Str s.config);
        ("iterations", Int s.iterations);
        ("counts", Obj (List.map (fun (k, v) -> (k, Int v)) s.counts));
        ( "failures",
          List
            (List.map
               (fun c ->
                 Obj
                   [
                     ("mutation", Str c.mutation);
                     ("outcome", Str (outcome_name c.outcome));
                     ( "detail",
                       Str (match c.outcome with Crashed e -> e | _ -> "") );
                   ])
               s.failures) );
      ])

let json_report ~cross_check (sweeps : sweep list) : Telemetry.Json.t =
  let total = List.fold_left (fun a s -> a + s.iterations) 0 sweeps in
  Telemetry.Json.(
    Obj
      [
        ("mode", Str (if cross_check then "cross-check" else "no-cross-check"));
        ("total_mutations", Int total);
        ("total_failures", Int (total_failures sweeps));
        ("sweeps", List (List.map json_of_sweep sweeps));
      ])
