# Developer entry points. `make check` is what CI runs: full build, a
# guard on the build profile, a guard that no code names an MM_*
# variable, the test run (which runs every collector on both engines
# with the heap verifier armed), an observability smoke test that
# executes a collecting workload with tracing on, flat and generational,
# and validates the emitted Chrome trace JSON (parses, spans balanced,
# both kinds of copying collection and every gc pause phase present), the
# same workload compiled at O1 (laid-out code) run under the heap
# verifier, three refused configurations (a nursery size without the
# generational collector, gc-unsafe code under a collector, a set MM_*
# variable; each must exit 16) and the accepted one (gc-unsafe code with
# no collector), a
# fault-injection smoke sweep over mutated gc-table streams, the
# profiling smoke test, and the A3 collector comparison.

DUNE ?= dune
TRACE_OUT := _build/smoke.trace.json
GEN_TRACE_OUT := _build/smoke.gen.trace.json
OPT_TRACE_OUT := _build/smoke.opt.trace.json
FAULT_ITERS ?= 15
FAULT_OUT := _build/fault-report.json
PROFILE_OUT := _build/smoke.profile.json

.PHONY: all build check-build check-env test smoke fault profile baseline check bench clean loc

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

# No environment variable configures a run: every test and every mmrun
# names its collector, engine and verifier. No source under these
# directories names an MM_* variable; mmrun refuses any that is set
# (exit 16) by its prefix alone.
ENV_DIRS := lib bin bench test tools

check-env:
	@if grep -rnE '"MM_[A-Z0-9_]+' --include='*.ml' --include='*.mli' $(ENV_DIRS); then \
	  echo "check-env: the lines above name an MM_* variable; configure a run by its flags"; \
	  exit 1; fi
	@echo "check-env: ok"

test: build
	$(DUNE) runtest

smoke: build
	$(DUNE) exec bin/mmrun.exe -- --heap 256 --trace $(TRACE_OUT) --metrics \
	  examples/sample.m3l > /dev/null
	$(DUNE) exec tools/validate_trace.exe -- $(TRACE_OUT) \
	  gc.collect gc.stackwalk gc.underive gc.forward_roots gc.copy gc.rederive
	$(DUNE) exec bin/mmrun.exe -- --collector gen --heap 8000 --trace $(GEN_TRACE_OUT) \
	  examples/sample.m3l > /dev/null
	$(DUNE) exec tools/validate_trace.exe -- $(GEN_TRACE_OUT) \
	  gc.minor gc.stackwalk gc.underive gc.forward_roots gc.copy gc.rederive
	$(DUNE) exec bin/mmrun.exe -- -O --verify-heap --heap 256 --trace $(OPT_TRACE_OUT) \
	  examples/sample.m3l > /dev/null
	$(DUNE) exec tools/validate_trace.exe -- $(OPT_TRACE_OUT) \
	  opt.nonnil opt.layout gc.collect gc.verify gc.stackwalk gc.underive gc.forward_roots gc.copy gc.rederive
	@for args in "--nursery 512" "--no-gc-restrict"; do \
	  $(DUNE) exec bin/mmrun.exe -- $$args examples/sample.m3l > /dev/null 2>&1; rc=$$?; \
	  if [ $$rc -ne 16 ]; then \
	    echo "smoke: mmrun $$args exited $$rc, not 16 (configuration error)"; exit 1; fi; \
	done
	@MM_GEN=1 $(DUNE) exec bin/mmrun.exe -- examples/sample.m3l > /dev/null 2>&1; rc=$$?; \
	  if [ $$rc -ne 16 ]; then echo "smoke: mmrun under MM_GEN=1 exited $$rc, not 16"; exit 1; fi
	$(DUNE) exec bin/mmrun.exe -- --no-gc-restrict --collector none --heap 400000 \
	  examples/sample.m3l > /dev/null

# Fault-injection sweep: mutated table streams must never crash, hang or
# silently diverge — both with the load-time cross-check (the shipping
# configuration) and without it (decoder + heap verifier on their own).
fault: build
	$(DUNE) exec tools/faultgen.exe -- --iters $(FAULT_ITERS) --out $(FAULT_OUT)
	$(DUNE) exec tools/faultgen.exe -- --iters $(FAULT_ITERS) --no-cross-check \
	  --out $(FAULT_OUT:.json=.nocross.json)

# Profiling smoke test: a collecting run with the allocation-site profiler
# on, in both copying collector modes, and a profiled run under each
# non-moving collector (address reuse credits the previous occupant's
# death), each with the heap verifier armed, validating the emitted
# profile documents (schema, site resolution, survival rates in range, no
# site with more deaths than allocations) and rendering them. The
# document holds counts only, so a second run must write the same bytes.
profile: build
	$(DUNE) exec bin/mmrun.exe -- --verify-heap --heap 2000 --profile $(PROFILE_OUT) \
	  examples/sample.m3l > /dev/null
	$(DUNE) exec tools/validate_trace.exe -- --profile $(PROFILE_OUT)
	$(DUNE) exec tools/profview.exe -- $(PROFILE_OUT) > /dev/null
	$(DUNE) exec bin/mmrun.exe -- --heap 2000 --profile $(PROFILE_OUT:.json=.again.json) \
	  examples/sample.m3l > /dev/null
	@cmp $(PROFILE_OUT) $(PROFILE_OUT:.json=.again.json) || { \
	  echo "profile: two --profile runs of sample.m3l wrote different documents"; exit 1; }
	$(DUNE) exec bin/mmrun.exe -- --verify-heap --collector gen --heap 4000 --profile \
	  $(PROFILE_OUT:.json=.gen.json) examples/sample.m3l > /dev/null
	$(DUNE) exec tools/validate_trace.exe -- --profile $(PROFILE_OUT:.json=.gen.json)
	$(DUNE) exec tools/profview.exe -- $(PROFILE_OUT:.json=.gen.json) > /dev/null
	$(DUNE) exec bin/mmrun.exe -- --verify-heap --collector inc --heap 4000 --profile \
	  $(PROFILE_OUT:.json=.inc.json) examples/sample.m3l > /dev/null
	$(DUNE) exec tools/validate_trace.exe -- --profile $(PROFILE_OUT:.json=.inc.json)
	$(DUNE) exec tools/profview.exe -- $(PROFILE_OUT:.json=.inc.json) > /dev/null
	$(DUNE) exec bin/mmrun.exe -- --verify-heap --collector conservative --heap 4000 --profile \
	  $(PROFILE_OUT:.json=.cons.json) examples/sample.m3l > /dev/null
	$(DUNE) exec tools/validate_trace.exe -- --profile $(PROFILE_OUT:.json=.cons.json)
	$(DUNE) exec tools/profview.exe -- $(PROFILE_OUT:.json=.cons.json) > /dev/null

# Ablation A3 (paper §7): precise compacting vs the conservative baseline
# on destroy, typereg and ambig. Fails if the two collectors' program
# outputs differ (the subcommand exits 1 after printing OUTPUT MISMATCH).
baseline: build
	$(DUNE) exec bench/main.exe -- baseline

# Lines of OCaml (ml and mli), reported next to the perf numbers: the
# libraries alone, and the libraries with the executables, the paper's
# tables, the tests and the tools.
LOC_LIB := lib
LOC_ALL := lib bin bench test tools

loc:
	@for dirs in "$(LOC_LIB)" "$(LOC_ALL)"; do \
	  n=$$(find $$dirs -name '*.ml' -o -name '*.mli' | xargs cat | wc -l); \
	  echo "loc $$dirs: $$n"; \
	done

check: build check-build check-env test smoke fault profile baseline
	@echo "check: ok"

# The paper's tables and figures. Performance numbers (wall time, per-layer
# breakdowns) come from benchmark/mmbench.exe, not from here.
bench: build
	$(DUNE) exec bench/main.exe

clean:
	$(DUNE) clean
