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
    T.Trace.span ~cat:"compile" "frontend.typecheck" (fun () ->
        M3l.Typecheck.check_source source)
  in
  let prog =
    T.Trace.span ~cat:"compile" "mir.lower" (fun () ->
        Mir.Lower.program ~checks:options.checks tast)
  in
  if options.optimize then Opt.Pipeline.optimize prog;
  if options.loop_gcpoints then
    ignore (T.Trace.span ~cat:"compile" "opt.loop_gcpoints" (fun () ->
        Opt.Loop_gcpoints.run prog));
  (* Must run after every pass that can insert gc-points: a gc-point the
     analysis did not see would make an elimination unsound. The pass
     records its own opt.barrier_elim span. *)
  if options.barrier_elim then Opt.Barrier_elim.run prog;
  prog

let image_of_mir ?(options = default_options) (prog : Mir.Ir.program) : Vm.Image.t =
  let module T = Telemetry in
  let noalloc =
    if options.noalloc_analysis then
      T.Trace.span ~cat:"compile" "opt.noalloc" (fun () -> Opt.Noalloc.analyze prog)
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
  T.Trace.span ~cat:"compile" "codegen.image" (fun () -> Vm.Image.build ~opts:build_opts prog)

let compile ?(options = default_options) (source : string) : Vm.Image.t =
  image_of_mir ~options (to_mir ~options source)

module Config = Support.Runtime_config

type collector = Config.collector = Precise | Generational | Incremental | Conservative | No_gc

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

(** Resolve the arguments with {!Support.Runtime_config.resolve} and
    install the result on a fresh machine: [collector], the precise one
    when none is named, with [policy]'s placement mapped onto the image's
    site table by stable (proc, line, col, tdesc) key. An image built
    without gc restrictions runs only under [No_gc]. Every entry point
    that runs an image installs through here. Returns the collector
    installed.
    @raise Support.Runtime_config.Config_error *)
let install ?collector ?nursery_words ?pause_budget_us ?policy st =
  let given setting v c = if v then [ (setting, c) ] else [] in
  let collector =
    Config.resolve
      ?collector:(Option.map (fun c -> ("~collector:" ^ Config.collector_name c, c)) collector)
      ?gc_unsafe:
        (if st.Vm.Interp.image.Vm.Image.gc_safe then None
         else Some "an image built with gc_restrict = false")
      ~needs:
        (given "~nursery_words" (nursery_words <> None) Generational
        @ given "~policy" (policy <> None) Generational
        @ given "~pause_budget_us" (pause_budget_us <> None) Incremental)
      ~bounds:[ ("~nursery_words", nursery_words, 1); ("~pause_budget_us", pause_budget_us, 0) ]
      ()
  in
  Option.iter
    (fun p ->
      let codes, _matched = Policy.decisions_for p (sites_for st.Vm.Interp.image) in
      Vm.Interp.set_placement st ~source:"file" codes)
    policy;
  (match collector with
  | Precise -> Gc.Cheney.install st
  | Generational -> Gc.Nursery.install ?nursery_words st
  | Incremental -> ignore (Gc.Incremental.install ?pause_budget_us st)
  | Conservative -> ignore (Gc.Incremental.install_conservative st)
  | No_gc -> ());
  collector

(** Install the collector and run [image] to completion on the threaded
    engine, or on the reference switch interpreter when [threaded] is
    false (by default, {!Vm.Threaded.enabled}). *)
let run ?collector ?nursery_words ?pause_budget_us ?profile ?(fuel = 200_000_000) ?policy
    ?(threaded = Vm.Threaded.enabled ()) (image : Vm.Image.t) : run_result =
  let st = Vm.Interp.create image in
  st.Vm.Interp.prof <- profile;
  ignore (install ?collector ?nursery_words ?pause_budget_us ?policy st);
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
    ?profile ?fuel ?policy ?threaded source =
  run ?collector ?nursery_words ?pause_budget_us ?profile ?fuel ?policy ?threaded
    (compile ~options source)
