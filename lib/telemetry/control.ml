(** The telemetry master switch and clock.

    Instrumentation sites throughout the compiler, VM and collectors guard
    every recording with {!on}; with the switch off (the default) a probe
    is a single flag test, no allocation, no clock read — "zero dependency
    when disabled". Enabling is a runtime decision made by the CLI flags
    ([mmrun --trace/--metrics/--gc-stats], [mmc --timings]) or by tests
    and benchmarks. *)

let enabled = ref false

let on () = !enabled

let enable () = enabled := true
let disable () = enabled := false

(** Monotonic clock in nanoseconds ([CLOCK_MONOTONIC] via bechamel's
    noalloc C stub). The previous source, the Unix wall clock, bottomed
    out at microsecond granularity rounded through a float, which
    quantized short GC pauses to multiples of hundreds of nanoseconds and
    reported minima of 0. All collectors and timers read this one clock so
    the numbers stay directly comparable. *)
let now_ns () = Monotonic_clock.now ()

(** Measured tick of {!now_ns}: the smallest positive delta observed over
    a burst of back-to-back reads. Computed once, on first use; reported in
    the metrics header so consumers know the floor under the timings. *)
let clock_granularity_ns =
  lazy
    (let best = ref Int64.max_int in
     let prev = ref (now_ns ()) in
     for _ = 1 to 1000 do
       let t = now_ns () in
       let d = Int64.sub t !prev in
       if Int64.compare d 0L > 0 && Int64.compare d !best < 0 then best := d;
       prev := t
     done;
     if !best = Int64.max_int then 1L else !best)

let granularity_ns () = Lazy.force clock_granularity_ns

let ns_to_us ns = Int64.to_float ns /. 1e3
