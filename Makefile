# Developer entry points. `make check` is what CI runs: full build, a
# guard on the build profile, a guard that only the config module reads
# MM_* variables, the test run, an observability smoke test
# that executes a collecting workload with tracing on, flat and
# generational, and validates the emitted Chrome trace JSON (parses,
# spans balanced, both kinds of copying collection and every gc pause
# phase present), a fault-injection smoke sweep over mutated gc-table
# streams, the profiling smoke test, and the A3 collector comparison.

DUNE ?= dune
TRACE_OUT := _build/smoke.trace.json
GEN_TRACE_OUT := _build/smoke.gen.trace.json
FAULT_ITERS ?= 15
FAULT_OUT := _build/fault-report.json
PROFILE_OUT := _build/smoke.profile.json

.PHONY: all build check-build check-env test test-verified test-gen test-switch \
	test-pressure test-incremental smoke fault profile baseline check bench clean

all: build

build:
	$(DUNE) build

# The workspace selects the release profile: no module is built with
# -opaque, so small cross-module functions (Vm.Mem's accessors among them)
# inline, while the dev profile's lint set still fails the build on any
# warning. Fails if any of these stops being true: Vm.Mem's unsafe_get no
# longer exported inlinable (-opaque is back), Gc.Cheney's forward no
# longer exported inlinable (its from-space range test would become a
# call in Nursery's remembered-set and root loops), or the printed flags
# lost the lint set.
MEM_CMX := _build/default/lib/vm/.vm.objs/native/vm__Mem.cmx
CHENEY_CMX := _build/default/lib/gc/.gc.objs/native/gc__Cheney.cmx
LINT_WARNINGS := @1..3@5..28@30..39@43@46..47@49..57@61..62-40

check-build: build
	@ocamlobjinfo $(MEM_CMX) | grep -q 'unsafe_get.*(inline)' || { \
	  echo "check-build: $(MEM_CMX) does not export unsafe_get inlinable (built with -opaque?)"; \
	  exit 1; }
	@ocamlobjinfo $(CHENEY_CMX) | grep -q 'Cheney\.forward_[0-9]*.*(inline)' || { \
	  echo "check-build: $(CHENEY_CMX) does not export forward inlinable"; \
	  exit 1; }
	@flags="$$($(DUNE) printenv .)"; \
	  echo "$$flags" | grep -q -- '-strict-sequence' \
	  && echo "$$flags" | grep -qF -- '$(LINT_WARNINGS)' || { \
	  echo "check-build: the build flags lost the lint set (-strict-sequence, -w $(LINT_WARNINGS))"; \
	  exit 1; }
	@echo "check-build: ok"

# Configuration is resolved in one place: no .ml file under these
# directories but the config module calls getenv/putenv (or reads the
# environment) where it names an MM_* variable, and the config module
# names exactly six.
CONFIG_ML := lib/support/runtime_config.ml
ENV_DIRS := lib bin bench test tools

check-env:
	@fail=0; \
	for f in $$(grep -rlE 'getenv|putenv|Unix\.environment' --include='*.ml' $(ENV_DIRS)); do \
	  if [ "$$f" != "$(CONFIG_ML)" ] && grep -qE '"MM_[A-Z_]*' "$$f"; then \
	    echo "check-env: $$f reads or sets an MM_* variable; only $(CONFIG_ML) may"; fail=1; \
	  fi; \
	done; \
	n=$$(grep -oE '"MM_[A-Z_]+"' $(CONFIG_ML) | sort -u | wc -l); \
	if [ "$$n" -ne 6 ]; then \
	  echo "check-env: $(CONFIG_ML) names $$n MM_* variables, not 6"; fail=1; \
	fi; \
	[ $$fail -eq 0 ] && echo "check-env: ok"

test: build
	$(DUNE) runtest

# The full test run again, with the heap verifier forced on around every
# collection (pre + post) via the environment switches.
test-verified: build
	MM_VERIFY_HEAP=1 MM_VERIFY_PRE=1 $(DUNE) runtest --force

# And again in generational mode: MM_GEN=1 flips every precise-collector
# entry point onto the nursery collector (same images, byte-identical
# tables), with the heap verifier — including the old→young remembered-set
# check — armed around every minor and full collection.
test-gen: build
	MM_GEN=1 MM_VERIFY_HEAP=1 $(DUNE) runtest --force

# And once more on the reference switch interpreter: MM_THREADED=0 turns
# the threaded-code engine off, so every driver-level test executes on
# the plain fetch/match/step loop the semantics are defined against.
test-switch: build
	MM_THREADED=0 $(DUNE) runtest --force

# And under memory pressure: MM_HEAP_GROW=1 arms adaptive semispace
# growth on every moving-collector entry point (tests that pick their
# own heap sizes now also exercise eager and post-collection growth up
# to the cap), with the heap verifier re-checking every post-growth heap.
test-pressure: build
	MM_HEAP_GROW=1 MM_VERIFY_HEAP=1 $(DUNE) runtest --force

# And in incremental mode: MM_GC_INCREMENTAL=1 flips every precise-
# collector entry point onto the tri-color sliced mark-sweep collector
# (same images, same gc-point tables, no pause budget so pacing is the
# deterministic work quota), with the heap verifier — including the
# tri-color invariant check — armed at every slice boundary.
test-incremental: build
	MM_GC_INCREMENTAL=1 MM_VERIFY_HEAP=1 $(DUNE) runtest --force

smoke: build
	$(DUNE) exec bin/mmrun.exe -- --heap 256 --trace $(TRACE_OUT) --metrics \
	  examples/sample.m3l > /dev/null
	$(DUNE) exec tools/validate_trace.exe -- $(TRACE_OUT) \
	  gc.collect gc.stackwalk gc.underive gc.forward_roots gc.copy gc.rederive
	$(DUNE) exec bin/mmrun.exe -- --gen --heap 8000 --trace $(GEN_TRACE_OUT) \
	  examples/sample.m3l > /dev/null
	$(DUNE) exec tools/validate_trace.exe -- $(GEN_TRACE_OUT) \
	  gc.minor gc.stackwalk gc.underive gc.forward_roots gc.copy gc.rederive

# Fault-injection sweep: mutated table streams must never crash, hang or
# silently diverge — both with the load-time cross-check (the shipping
# configuration) and without it (decoder + heap verifier on their own).
fault: build
	$(DUNE) exec tools/faultgen.exe -- --iters $(FAULT_ITERS) --out $(FAULT_OUT)
	$(DUNE) exec tools/faultgen.exe -- --iters $(FAULT_ITERS) --no-cross-check \
	  --out $(FAULT_OUT:.json=.nocross.json)

# Profiling smoke test: a collecting run with the allocation-site profiler
# and periodic heap censuses on, in both copying collector modes, and a
# profiled run under each non-moving collector (address reuse credits the
# previous occupant's death), validating the emitted profile documents
# (schema, site resolution, survival rates in range, no site with more
# deaths than allocations, bucket counts summing to pause counts) and
# rendering them. A census request under a non-moving collector, which
# never ends a copying collection, must be refused.
profile: build
	$(DUNE) exec bin/mmrun.exe -- --heap 2000 --profile $(PROFILE_OUT) \
	  --census-every 8 examples/sample.m3l > /dev/null
	$(DUNE) exec tools/validate_trace.exe -- --profile $(PROFILE_OUT)
	$(DUNE) exec tools/profview.exe -- $(PROFILE_OUT) > /dev/null
	$(DUNE) exec bin/mmrun.exe -- --gen --heap 4000 --profile \
	  $(PROFILE_OUT:.json=.gen.json) --census-every 8 examples/sample.m3l > /dev/null
	$(DUNE) exec tools/validate_trace.exe -- --profile $(PROFILE_OUT:.json=.gen.json)
	$(DUNE) exec tools/profview.exe -- $(PROFILE_OUT:.json=.gen.json) > /dev/null
	$(DUNE) exec bin/mmrun.exe -- --incremental --heap 4000 --profile \
	  $(PROFILE_OUT:.json=.inc.json) examples/sample.m3l > /dev/null
	$(DUNE) exec tools/validate_trace.exe -- --profile $(PROFILE_OUT:.json=.inc.json)
	$(DUNE) exec tools/profview.exe -- $(PROFILE_OUT:.json=.inc.json) > /dev/null
	$(DUNE) exec bin/mmrun.exe -- --collector conservative --heap 4000 --profile \
	  $(PROFILE_OUT:.json=.cons.json) examples/sample.m3l > /dev/null
	$(DUNE) exec tools/validate_trace.exe -- --profile $(PROFILE_OUT:.json=.cons.json)
	$(DUNE) exec tools/profview.exe -- $(PROFILE_OUT:.json=.cons.json) > /dev/null
	@for c in "--incremental" "--collector conservative"; do \
	  if $(DUNE) exec bin/mmrun.exe -- $$c --census-every 8 --profile \
	    $(PROFILE_OUT:.json=.refused.json) examples/sample.m3l > /dev/null 2>&1; then \
	    echo "profile: mmrun accepted --census-every with $$c"; exit 1; fi; \
	done

# Ablation A3 (paper §7): precise compacting vs the conservative baseline
# on destroy, typereg and ambig. Fails if the two collectors' program
# outputs differ (the subcommand exits 1 after printing OUTPUT MISMATCH).
baseline: build
	$(DUNE) exec bench/main.exe -- baseline

check: build check-build check-env test smoke fault profile baseline
	@echo "check: ok"

# The paper's tables and figures. Performance numbers (wall time, per-layer
# breakdowns) come from benchmark/mmbench.exe, not from here.
bench: build
	$(DUNE) exec bench/main.exe

clean:
	$(DUNE) clean
