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
  | Recovered (* reference output AND the collector degraded at least one
                 parallel round to the serial replay — the runtime-fault
                 modes' success class *)
  | Diverged (* ran to completion with different output — silent mis-decode *)
  | Hung (* exceeded the fuel budget *)
  | Crashed of string (* any untyped exception: the bug class this layer removes *)

let outcome_name = function
  | Rejected_load -> "rejected_load"
  | Rejected_run -> "rejected_run"
  | Verifier_flagged -> "verifier_flagged"
  | Benign -> "benign"
  | Recovered -> "recovered"
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

let run_mutated ~(reference : string) ~fuel (img : Vm.Image.t) : outcome =
  let st = Vm.Interp.create img in
  (* Honor MM_GEN like every precise-collector entry point: the CI gen job
     re-runs the whole sweep with the nursery collector (and its
     old→young verifier check) decoding the mutated tables. *)
  if Gc.Nursery.env_enabled () then Gc.Nursery.install st else Gc.Cheney.install st;
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
    [config]. The image is compiled once; each iteration mutates a copy
    of its tables. *)
let sweep_target ?(cross_check = true) ~seed ~iterations (target : target)
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
  let reference = Driver.Compile.run ~collector:Driver.Compile.Precise img in
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
                    run_mutated ~reference:reference.Driver.Compile.output ~fuel
                      (with_tables img tables)
                | exception D.Table_corrupt _ -> Rejected_load
                | exception e -> Crashed (Printexc.to_string e)
              else
                run_mutated ~reference:reference.Driver.Compile.output ~fuel
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
    config = cfg_name;
    iterations;
    counts = Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts [];
    failures = List.rev !failures;
  }

(** The full matrix: every target × every scheme/packing config. *)
let sweep_all ?(cross_check = true) ?(targets = default_targets) ~seed ~iterations_per_config ()
    : sweep list =
  List.concat_map
    (fun t ->
      List.mapi
        (fun i cfg ->
          sweep_target ~cross_check ~seed:(seed + (1000 * i) + Hashtbl.hash t.t_name)
            ~iterations:iterations_per_config t cfg)
        all_configs)
    targets

let total_failures sweeps = List.fold_left (fun a s -> a + List.length s.failures) 0 sweeps

(* ------------------------------------------------------------------ *)
(* Runtime fault modes: worker raises/stalls, allocation storms        *)
(* ------------------------------------------------------------------ *)

(* Where the table-corruption sweeps attack the encoded data, these modes
   attack the running collector itself: a worker domain that raises in a
   chosen parallel round, a worker that stalls past the round watchdog
   deadline, and a forced collection every Nth allocation (an
   allocation-failure storm). The containment claim under test: every
   such fault degrades to the byte-identical serial replay — reference
   output, reference final heap image, verifier clean. *)

exception Injected_fault

type runtime_mode =
  | Worker_raise of { round : int } (* a worker raises in parallel round N *)
  | Worker_stall of { round : int; ms : int } (* ... stalls for [ms] there *)
  | Alloc_storm of { every : int } (* force a collection every Nth alloc *)

let runtime_mode_name = function
  | Worker_raise { round } -> Printf.sprintf "worker-raise@r%d" round
  | Worker_stall { round; ms } -> Printf.sprintf "worker-stall@r%d(%dms)" round ms
  | Alloc_storm { every } -> Printf.sprintf "alloc-storm(every=%d)" every

(* Arm [mode] against a machine about to run. The worker faults go
   through the collector's per-(phase, round, worker) hook: worker 0 is
   the dispatching mutator thread, so it is never stalled (the watchdog
   runs on it) and never raised (so the fault always lands in a pool
   domain). A storm is a property of the machine. *)
let arm_runtime (st : Vm.Interp.t) = function
  | Worker_raise { round } ->
      Gc.Gc_pool.fault_hook :=
        Some
          (fun ~phase:_ ~round:r ~worker ->
            if r = round && worker > 0 then raise Injected_fault)
  | Worker_stall { round; ms } ->
      Gc.Gc_pool.fault_hook :=
        Some
          (fun ~phase:_ ~round:r ~worker ->
            if r = round && worker > 0 then Unix.sleepf (float_of_int ms /. 1e3))
  | Alloc_storm { every } -> st.Vm.Interp.alloc_pressure_every <- every

let disarm_hook () = Gc.Gc_pool.fault_hook := None

(* Reference run with a counting hook: how many parallel rounds does the
   deepest collection reach? (Counted on worker 0, so no cross-domain
   writes.) Also yields the reference output and final heap image. *)
let count_rounds img ~fuel =
  let seen = ref (-1) in
  Gc.Gc_pool.fault_hook :=
    Some (fun ~phase:_ ~round ~worker -> if worker = 0 && round > !seen then seen := round);
  let st = Vm.Interp.create img in
  Gc.Cheney.install st;
  Vm.Interp.run ~fuel st;
  disarm_hook ();
  (!seen + 1, Vm.Interp.output st, Vm.Mem.copy st.Vm.Interp.mem)

let run_runtime_case ~reference ~ref_mem ~fuel img mode : outcome =
  let st = Vm.Interp.create img in
  Gc.Cheney.install st;
  arm_runtime st mode;
  let finish () = disarm_hook () in
  match Vm.Interp.run ~fuel st with
  | () ->
      finish ();
      let out_ok = Vm.Interp.output st = reference in
      let heap_ok =
        (* Worker faults must leave the final heap byte-identical to the
           fault-free run (the serial replay reproduces the layout; a
           quarantined store is an identical copy). An allocation storm
           legitimately collects extra times, so only output is compared. *)
        match ref_mem with
        | Some m -> Vm.Mem.equal st.Vm.Interp.mem m
        | None -> true
      in
      if not (out_ok && heap_ok) then Diverged
      else if st.Vm.Interp.gc.Vm.Interp.serial_replays > 0 then Recovered
      else Benign
  | exception Vm.Vm_error.Error e -> (
      finish ();
      match e with
      | Vm.Vm_error.Verify_failed _ -> Verifier_flagged
      | Vm.Vm_error.Out_of_fuel _ -> Hung
      | _ -> Rejected_run)
  | exception Vm.Interp.Guest_error _ ->
      finish ();
      Rejected_run
  | exception e ->
      finish ();
      Crashed (Printexc.to_string e)

(** Worker-fault-at-every-round sweep over one target, with the
    post-collection verifier armed: a raise in every parallel round a
    fault-free run performs, a stall past the watchdog in each of those
    rounds, and an allocation storm. Expected outcomes are [Recovered]
    (or [Benign] where a mode never triggers); crash/hang/diverge and
    verifier flags are failures. *)
let runtime_sweep ?(workers = 4) ?(stall_ms = 60) ?(deadline_ms = 15)
    ?(storm_every = 7) (target : target) : sweep =
  let options =
    { Driver.Compile.default_options with heap_words = target.t_heap }
  in
  let img = Driver.Compile.compile ~options target.t_source in
  let w0 = !Gc.Gc_pool.forced_workers
  and t0 = !Gc.Gc_pool.forced_threshold
  and d0 = !Gc.Gc_pool.forced_deadline_ms in
  Gc.Gc_pool.set_workers workers;
  Gc.Gc_pool.set_par_threshold 2;
  Gc.Gc_pool.set_deadline_ms deadline_ms;
  Fun.protect
    ~finally:(fun () ->
      disarm_hook ();
      ignore (Gc.Gc_pool.quiesce ~timeout_s:10.0);
      Gc.Gc_pool.forced_workers := w0;
      Gc.Gc_pool.forced_threshold := t0;
      Gc.Gc_pool.forced_deadline_ms := d0)
  @@ fun () ->
  with_verifier @@ fun () ->
  let fuel = 200_000_000 in
  let rounds, reference, ref_mem = count_rounds img ~fuel in
  let cases =
    List.init rounds (fun r -> Worker_raise { round = r })
    @ List.init rounds (fun r -> Worker_stall { round = r; ms = stall_ms })
    @ [ Alloc_storm { every = storm_every } ]
  in
  let counts = Hashtbl.create 8 in
  let bump o = Hashtbl.replace counts o (1 + try Hashtbl.find counts o with Not_found -> 0) in
  let failures = ref [] in
  List.iter
    (fun mode ->
      let ref_mem =
        match mode with Alloc_storm _ -> None | _ -> Some ref_mem
      in
      let outcome = run_runtime_case ~reference ~ref_mem ~fuel img mode in
      (* A stalled worker outlives its round by design; wait for it to
         retire so the next case starts on a healthy pool. *)
      (match mode with
      | Worker_stall _ -> ignore (Gc.Gc_pool.quiesce ~timeout_s:10.0)
      | _ -> ());
      bump (outcome_name outcome);
      match outcome with
      | Crashed _ | Hung | Diverged | Verifier_flagged ->
          failures := { mutation = runtime_mode_name mode; outcome } :: !failures
      | _ -> ())
    cases;
  {
    program = target.t_name;
    config = Printf.sprintf "runtime(workers=%d)" workers;
    iterations = List.length cases;
    counts = Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts [];
    failures = List.rev !failures;
  }

(** The runtime-fault matrix over the default targets. *)
let runtime_sweep_all ?workers ?stall_ms ?deadline_ms ?storm_every
    ?(targets = default_targets) () : sweep list =
  List.map (runtime_sweep ?workers ?stall_ms ?deadline_ms ?storm_every) targets

(* ------------------------------------------------------------------ *)
(* Incremental-collector interleaving faults                           *)
(* ------------------------------------------------------------------ *)

(* The incremental collector's bug surface is the interleaving: a slice
   at the worst gc-point, a barrier flood, a mark stack too small to hold
   the frontier. Each mode perturbs the slice schedule as far as the
   engine allows and asserts the STW contract anyway: reference output
   and instruction count (slices execute no guest instructions), with the
   heap verifier — including its tri-color check — armed at every slice
   boundary. The final heap image is NOT compared: a different slice
   schedule legitimately frees and reuses blocks in a different order,
   which is exactly why output/icount are the observable contract. *)

type incremental_mode =
  | Slice_storm (* force a slice at every gc-point *)
  | Barrier_storm (* re-gray already-marked barrier targets *)
  | Mark_spill of { cap : int } (* tiny mark stack: spill + rescan paths *)
  | Tiny_budget of { us : int } (* wall-clock-truncated slices *)

let incremental_mode_name = function
  | Slice_storm -> "slice-storm"
  | Barrier_storm -> "barrier-storm"
  | Mark_spill { cap } -> Printf.sprintf "mark-spill(cap=%d)" cap
  | Tiny_budget { us } -> Printf.sprintf "tiny-budget(%dus)" us

let run_incremental_case ~reference ~ref_icount ~fuel img mode : outcome =
  let st = Vm.Interp.create img in
  let gray_cap = match mode with Mark_spill { cap } -> Some cap | _ -> None in
  let pause_budget_us =
    match mode with Tiny_budget { us } -> Some us | _ -> None
  in
  ignore
    (Gc.Incremental.install ?gray_cap ?pause_budget_us
       ~slice_storm:(mode = Slice_storm)
       ~barrier_storm:(mode = Barrier_storm)
       st);
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
    the schedule rather than the out-of-memory path. *)
let incremental_sweep (target : target) : sweep =
  let options =
    { Driver.Compile.default_options with heap_words = target.t_heap * 2 }
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
      Barrier_storm;
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
    config = "incremental";
    iterations = List.length cases;
    counts = Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts [];
    failures = List.rev !failures;
  }

(** The incremental interleaving matrix over the default targets. *)
let incremental_sweep_all ?(targets = default_targets) () : sweep list =
  List.map incremental_sweep targets

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
