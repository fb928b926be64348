(** Every metric the benchmark can report: its unit and which direction
    is better. This table is the one place both are decided; printing and
    [compare] read them here. [BENCHMARK.json] registers a subset of the
    names (its units and directions are a copy for readers of the file);
    the test suite checks that it names no metric this table lacks. *)

type better = Lower | Higher
type metric = { name : string; unit : string; better : better }

let m ?(better = Lower) name unit = { name; unit; better }

(** From the untraced rounds: what a user of the compiler and runtime sees.
    The host this benchmark was built on runs everything 1.4x to 2x
    slower for tens of seconds at a time, which moves medians by a tenth
    or more between runs; the tenth percentile of the same samples, the
    time of an execution on a quiet machine, repeats within a few
    percent. *)
let end_to_end =
  [
    m "setup_s" "s";
    m "exec_ms_p10" "ms";
    m "exec_ms_p50" "ms";
    m "exec_ms_p90" "ms";
    m "pause_us_p50" "us";
    m "pause_us_p99" "us";
    m "pause_us_max" "us";
    m "code_bytes" "bytes";
    m "table_bytes" "bytes";
    m "peak_rss_mb" "MB";
    m "error_rate" "ratio";
  ]

(** From the traced pass: one layer each. A metric a workload does not
    exercise reads 0 there. *)
let per_layer =
  [
    m "m3l.check_ms" "ms";
    m "mir.lower_ms" "ms";
    m "mir.insns" "count";
    m "opt.pipeline_ms" "ms";
    m "opt.barrier_elim_ms" "ms";
    m "opt.insns" "count";
    m ~better:Higher "opt.barriers_elided" "count";
    m "image.build_ms" "ms";
    m "image.gcpoints" "count";
    m "code_bytes" "bytes";
    m "table_bytes" "bytes";
    m "vm.translate_us" "us";
    m "vm.create_ms" "ms";
    m "vm.mutator_ms" "ms";
    m "vm.insns" "count";
    m ~better:Higher "vm.minsns_per_s" "Minsn/s";
    m ~better:Higher "vm.fused_execs" "count";
    m "vm.allocs" "count";
    m "vm.alloc_words" "words";
    m "profile.train_ms" "ms";
    m "policy.derive_ms" "ms";
    m ~better:Higher "policy.sites_placed" "count";
    m "gc.ms" "ms";
    m "gc.share" "ratio";
    m "gc.collections" "count";
    m "gc.stackwalk_ms" "ms";
    m "gc.underive_ms" "ms";
    m "gc.forward_roots_ms" "ms";
    m "gc.rederive_ms" "ms";
    m "gc.copy_ms" "ms";
    m "gc.trace_share" "ratio";
    m "gc.frames" "count";
    m "gc.words_copied" "words";
    m "gc.objects_copied" "count";
    m ~better:Higher "gc.copy_mwords_per_s" "Mwords/s";
    m "gcmaps.finds" "count";
    m ~better:Higher "gcmaps.cache_hit_ratio" "ratio";
    m "gcmaps.decode_bytes" "bytes";
    m "derived.underived" "count";
    m "derived.rederived" "count";
    m "nursery.minor" "count";
    m "nursery.major" "count";
    m "nursery.promoted_words" "words";
    m "nursery.pretenured_words" "words";
    m "nursery.pool_words" "words";
    m "nursery.barrier_execs" "count";
    m "nursery.remset_inserts" "count";
    m "incremental.slices" "count";
    m "incremental.slice_overruns" "count";
    m "incremental.forced_finish" "count";
    m "incremental.flip_us" "us";
    m "incremental.marked_objects" "count";
    m "incremental.swept_objects" "count";
    m "pause_us_p50" "us";
    m "pause_us_p99" "us";
    m "pause_us_max" "us";
    m "trace.overhead" "ratio";
    m "trace.ledger_gap" "ratio";
  ]

let find list name = List.find_opt (fun x -> x.name = name) list
