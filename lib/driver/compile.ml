(** End-to-end compilation driver:
    source → tokens → AST → typed AST → MIR → (optimizer) → UVM image. *)

type options = {
  optimize : bool;
  checks : bool; (* NIL / bounds checks (Modula-3 semantics) *)
  gc_restrict : bool; (* §6.2: off reproduces "without gc restrictions" *)
  noalloc_analysis : bool; (* calls to never-allocating procs are not gc-points *)
  loop_gcpoints : bool; (* §5.3: guarantee a gc-point in every loop *)
  barrier_elim : bool; (* drop write barriers on provably nursery-bound stores *)
  heap_words : int;
  stack_words : int;
  scheme : Gcmaps.Encode.scheme;
  table_opts : Gcmaps.Encode.options;
}

let default_options =
  {
    optimize = false;
    checks = true;
    gc_restrict = true;
    noalloc_analysis = false;
    loop_gcpoints = false;
    barrier_elim = true;
    heap_words = 65536;
    stack_words = 16384;
    scheme = Gcmaps.Encode.Delta_main;
    table_opts = { Gcmaps.Encode.packing = true; previous = true };
  }

let to_mir ?(options = default_options) (source : string) : Mir.Ir.program =
  let module T = Telemetry in
  let tast =
    T.Timer.time ~cat:"compile" "frontend.typecheck" (fun () ->
        M3l.Typecheck.check_source source)
  in
  let prog =
    T.Timer.time ~cat:"compile" "mir.lower" (fun () ->
        Mir.Lower.program ~checks:options.checks tast)
  in
  if options.optimize then Opt.Pipeline.optimize prog;
  if options.loop_gcpoints then
    ignore (T.Timer.time ~cat:"compile" "opt.loop_gcpoints" (fun () ->
        Opt.Loop_gcpoints.run prog));
  (* Must run after every pass that can insert gc-points: a gc-point the
     analysis did not see would make an elimination unsound. *)
  if options.barrier_elim then
    T.Timer.time ~cat:"compile" "opt.barrier_elim" (fun () ->
        Opt.Barrier_elim.run prog);
  prog

let image_of_mir ?(options = default_options) (prog : Mir.Ir.program) : Vm.Image.t =
  let module T = Telemetry in
  let noalloc =
    if options.noalloc_analysis then
      T.Timer.time ~cat:"compile" "opt.noalloc" (fun () -> Opt.Noalloc.analyze prog)
    else fun _ -> false
  in
  let build_opts =
    {
      Vm.Image.heap_words = options.heap_words;
      stack_words = options.stack_words;
      select = { Codegen.Select.gc_restrict = options.gc_restrict; noalloc };
      scheme = options.scheme;
      table_opts = options.table_opts;
    }
  in
  T.Timer.time ~cat:"compile" "codegen.image" (fun () -> Vm.Image.build ~opts:build_opts prog)

let compile ?(options = default_options) (source : string) : Vm.Image.t =
  image_of_mir ~options (to_mir ~options source)

module Config = Support.Runtime_config

type collector = Config.collector = Precise | Generational | Incremental | Conservative | No_gc

(** [--collector]'s names, aliases included. *)
let collector_names =
  [ ("precise", Precise); ("generational", Generational); ("gen", Generational);
    ("incremental", Incremental); ("inc", Incremental); ("conservative", Conservative);
    ("none", No_gc) ]

let collector_name c = fst (List.find (fun (_, c') -> c' = c) collector_names)

type run_result = {
  output : string;
  instructions : int;
  allocations : int;
  alloc_words : int;
  collections : int;
  engine : string; (* "threaded" or "switch" *)
  gc : Vm.Interp.gc_stats;
  placement : (string * int array) option;
      (* (source, per-site decision codes) when placement was active *)
}

(** An image's static site table converted to the profiler's own site
    records (so [lib/profile] stays below the compiler and VM in the
    dependency order). Shared by the profiler and the policy mapper, so a
    policy keys against exactly the sites a profile of the same image
    would report. *)
let sites_for (image : Vm.Image.t) : Profile.site array =
  Array.map
    (fun (s : Mir.Ir.alloc_site) ->
      {
        Profile.s_id = s.Mir.Ir.as_id;
        s_proc = s.Mir.Ir.as_proc;
        s_line = s.Mir.Ir.as_line;
        s_col = s.Mir.Ir.as_col;
        s_tdesc = s.Mir.Ir.as_tdesc;
        s_open = s.Mir.Ir.as_open;
      })
    image.Vm.Image.alloc_sites

(** A fresh profiler for an image, its side array sized to the image's
    memory map. Attach it via [run ~profile]. *)
let profile_for (image : Vm.Image.t) : Profile.t =
  Profile.create ~words:image.Vm.Image.total_words (sites_for image)

(** Parse an [mm-policy] file. @raise Policy.Policy_error on schema
    mismatch, [Sys_error] on I/O failure. *)
let policy_of_file path : Policy.t =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  Policy.of_json (Telemetry.Json.parse s)

(** Default semispace cap when growth is on but no cap was given: plenty
    for every workload in the repo, small enough to stay a sane bound. *)
let default_heap_max_words = 4_194_304

(** The collector {!run} installs for these arguments: they are resolved
    over the environment's config by {!Support.Runtime_config.resolve}.
    @raise Support.Runtime_config.Config_error *)
let resolve ?(collector = Precise) ?nursery_words ?pause_budget_us ?heap_grow ?heap_max_words () =
  Config.resolve (Config.env ())
    ~collectors:[ ("~collector:" ^ collector_name collector, collector) ]
    ?grow:
      (match (heap_grow, heap_max_words) with
      | Some true, _ -> Some "~heap_grow:true"
      | None, Some _ -> Some "~heap_max_words"
      | _ -> None)
    ~bounds:
      [ ("~nursery_words", nursery_words, 1); ("~pause_budget_us", pause_budget_us, 0);
        ("~heap_max_words", heap_max_words, 1) ]

(** Resolve as {!resolve} does and install the result on a fresh machine:
    arm adaptive growth when the collector moves (the conservative and
    incremental collectors' free-list blocks and the no-gc configuration
    have no post-collection safe point to resize at), then the collector.
    [heap_grow] wins over [MM_HEAP_GROW]; a cap implies growth. Every
    entry point that runs an image installs through here. Returns the
    collector installed. @raise Support.Runtime_config.Config_error *)
let install ?collector ?nursery_words ?pause_budget_us ?heap_grow ?heap_max_words st =
  let collector = resolve ?collector ?nursery_words ?pause_budget_us ?heap_grow ?heap_max_words () in
  let grow =
    match heap_grow with Some b -> b | None -> (Config.env ()).heap_grow || heap_max_words <> None
  in
  if grow && Config.moving collector then begin
    let cap = Option.value heap_max_words ~default:default_heap_max_words in
    st.Vm.Interp.heap_resize <- true;
    st.Vm.Interp.heap_max_words <- max cap st.Vm.Interp.from_words
  end;
  (match collector with
  | Precise -> Gc.Cheney.install st
  | Generational -> Gc.Nursery.install ?nursery_words st
  | Incremental -> ignore (Gc.Incremental.install ?pause_budget_us st)
  | Conservative -> ignore (Gc.Incremental.install_conservative st)
  | No_gc -> ());
  collector

let run ?collector ?nursery_words ?pause_budget_us ?profile ?(fuel = 200_000_000) ?heap_grow
    ?heap_max_words ?policy (image : Vm.Image.t) : run_result =
  let st = Vm.Interp.create image in
  st.Vm.Interp.prof <- profile;
  (* A placement policy is mapped onto this image's site table by stable
     (proc, line, col, tdesc) key. *)
  (match policy with
  | Some p ->
      let codes, _matched = Policy.decisions_for p (sites_for image) in
      Vm.Interp.set_placement st ~source:"file" codes
  | None -> ());
  let collector = install ?collector ?nursery_words ?pause_budget_us ?heap_grow ?heap_max_words st in
  (* Fidelity note (§6.2): an image built with --no-gc-restrict may keep
     live pointers in forms the tables cannot describe; collecting while it
     runs can corrupt the heap. Warn whenever such output is executed under
     a collector. *)
  if (not image.Vm.Image.gc_safe) && collector <> No_gc then
    Telemetry.Log.warn_once
      "executing --no-gc-restrict output with a collector installed: code is \
       not gc-safe by construction; a collection may corrupt the heap";
  (* Engine choice is a pure runtime switch over the same machine state:
     the threaded pre-translated dispatch by default, the reference switch
     interpreter under --no-threaded / MM_THREADED=0. *)
  let threaded = Vm.Threaded.enabled () in
  if threaded then Vm.Threaded.run ~fuel st else Vm.Interp.run ~fuel st;
  {
    output = Vm.Interp.output st;
    instructions = st.Vm.Interp.icount;
    allocations = st.Vm.Interp.alloc_count;
    alloc_words = st.Vm.Interp.alloc_words;
    collections = st.Vm.Interp.gc.Vm.Interp.collections;
    engine = (if threaded then "threaded" else "switch");
    gc = st.Vm.Interp.gc;
    placement = Vm.Interp.placement_info st;
  }

(** Compile and run in one step (tests and examples). *)
let run_source ?(options = default_options) ?collector ?nursery_words ?pause_budget_us
    ?profile ?fuel ?heap_grow ?heap_max_words ?policy source =
  run ?collector ?nursery_words ?pause_budget_us ?profile ?fuel ?heap_grow
    ?heap_max_words ?policy (compile ~options source)
