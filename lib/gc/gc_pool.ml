(** What is left of the collector worker pool.

    The copy is serial ({!Cheney.run}); DESIGN.md §10 says why. This
    one function exists only for [benchmark/hooks.ml], which pins the copy
    worker count of every benchmark execution through it. *)

(** Accept the serial copy's one worker.
    @raise Invalid_argument for any other count: there is no parallel
    copy to run it, and running serial under a parallel name would
    mislabel the measurement. *)
let set_workers n =
  if n <> 1 then
    invalid_arg (Printf.sprintf "Gc_pool.set_workers %d: the copy is serial, only 1 worker" n)
