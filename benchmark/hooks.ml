(** The benchmark's only window into VM and collector internals.

    Everything else in the benchmark goes through public compiler and
    library calls; this module creates machines, installs a collector and
    a placement, and wraps the installed collector entry and incremental
    slice poll so the benchmark can time pauses from outside. When the
    collector interface changes, this is the one file to follow. *)

module VI = Vm.Interp

type collector =
  | Cheney  (** serial or parallel semispace copying *)
  | Nursery of int  (** generational, nursery size in words *)
  | Incremental of int  (** tri-color mark-sweep, pause budget in µs *)

(** Instruction budget of one execution, the default [Driver.Compile.run]
    gives every program. *)
let fuel = 200_000_000

(** Pin every runtime switch the environment could otherwise flip: the
    threaded engine and the decode cache on, the copy worker count, and
    the heap verifier (on only for preflight executions). *)
let configure ~workers ~verify =
  Vm.Threaded.set_enabled true;
  Gcmaps.Decode_cache.set_enabled true;
  Gc.Gc_pool.set_workers workers;
  Gc.Verify.set_post verify;
  Gc.Verify.set_pre false

(** Build (and cache) the threaded engine's closure array for an image. *)
let translate image = ignore (Vm.Threaded.engine_for image)

let create image = VI.create image

let install (st : VI.t) collector ~placement =
  (match placement with
  | Some codes -> VI.set_placement st ~source:"file" codes
  | None -> ());
  match collector with
  | Cheney -> Gc.Cheney.install st
  | Nursery words -> Gc.Nursery.install ~nursery_words:words st
  | Incremental us -> ignore (Gc.Incremental.install ~pause_budget_us:us st)

type pause = Call | Slice

(** Time every call into the installed collector and, when [slices], every
    slice poll; [record] receives the pauses — collector calls, and polls
    that ran a slice — with their monotonic start and end. *)
let time_pauses (st : VI.t) ~slices ~(record : pause -> int64 -> int64 -> unit) =
  let now = Telemetry.Control.now_ns in
  (match st.VI.collector with
  | Some collect ->
      st.VI.collector <-
        Some
          (fun st ~needed ->
            let t0 = now () in
            collect st ~needed;
            record Call t0 (now ()))
  | None -> ());
  match (st.VI.inc_slice, st.VI.inc) with
  | Some poll, Some inc when slices ->
      st.VI.inc_slice <-
        Some
          (fun st ->
            let n0 = inc.VI.inc_slices in
            let t0 = now () in
            poll st;
            if inc.VI.inc_slices <> n0 then record Slice t0 (now ()))
  | _ -> ()

let run st = Vm.Threaded.run ~fuel st
let output st = VI.output st
let instructions (st : VI.t) = st.VI.icount

(** Objects marked and swept by the incremental collector (0 under the
    copying collectors). *)
let incremental_counts st =
  match Gc.Incremental.stats st with
  | Some s -> (s.Gc.Incremental.marked_objects, s.Gc.Incremental.swept_objects)
  | None -> (0, 0)
