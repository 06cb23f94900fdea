# Developer workflow for the clgen reproduction. `make check` is the
# tier-1 gate: build, vet, formatting, and the race-enabled test suite.

GO ?= go

.PHONY: check build vet vet-stages fmt test race bench bench-snapshot provenance-smoke perf-smoke cache-smoke model-smoke feature-smoke footprint-smoke lint-suites interp-fuzz

check: build vet vet-stages fmt race

build:
	$(GO) build ./...

# perfbench/ is its own module, so the root ./... never compiles it; vet
# it too so an internal API change cannot break the benchmark unnoticed.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...

# Repo-local vet pass: journal stage names must be the typed constants,
# never string literals (tools/vet/journalstages).
vet-stages:
	$(GO) run ./tools/vet/journalstages ./...

# gofmt -l prints offending files; fail if any.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# The determinism suite builds whole worlds at several worker counts; give
# the race detector's overhead generous headroom.
race:
	$(GO) test -race -timeout 30m ./...

bench:
	$(GO) test -bench=. -benchmem

# Runs the benches and leaves BENCH_telemetry.json behind: the
# stage-duration histogram baseline future perf PRs diff against.
# Also records BENCH_parallel.json: serial-vs-parallel wall times of the
# worker-pool fan-outs (workers=1,2,4) with outputs verified identical.
# BENCH_analysis.json adds the static analyzer's cost/payoff: rejection-
# filter throughput with strict mode off vs on, and the dynamic-checker
# executions the pre-screen eliminates.
# BENCH_cache.json records the content-addressed stage caches' payoff:
# cold- vs warm-cache corpus build and Figure 9 wall times, with output
# equality verified (warm must be >= 2x faster and byte-identical).
# BENCH_model.json records learning-loop throughput: LSTM training
# tokens/s, Grewe LOOCV predictions/s, and the journal cost per audited
# prediction (the number that licenses leaving -journal on in CI).
# Stale snapshots are removed first so a failed run cannot leave a
# previous baseline masquerading as fresh (idempotent re-runs).
bench-snapshot:
	rm -f BENCH_telemetry.json BENCH_parallel.json BENCH_analysis.json BENCH_cache.json BENCH_model.json
	$(GO) test -run=TestMain -bench=. -benchtime=1x
	BENCH_PARALLEL=1 $(GO) test -run=TestParallelBenchSnapshot .
	BENCH_ANALYSIS=1 $(GO) test -run=TestAnalysisBenchSnapshot -timeout 30m .
	BENCH_CACHE=1 $(GO) test -run=TestCacheBenchSnapshot -timeout 30m .
	BENCH_MODEL=1 $(GO) test -run=TestModelBenchSnapshot -timeout 30m .
	$(GO) run ./cmd/clperf record -history PERF_HISTORY.jsonl -component bench BENCH_telemetry.json

# End-to-end cache gate: a cold run populates -cache-dir, a warm run with
# the same seed reuses it. The warm run's stdout must be byte-identical,
# `cltrace diff` must gate clean between the two journals (the cache may
# never change what the pipeline produces), and the warm funnel must show
# a nonzero number of stage results served from cache (the cache must
# actually engage).
cache-smoke:
	$(GO) build -o /tmp/clgen-cache ./cmd/clgen
	$(GO) build -o /tmp/cltrace-cache ./cmd/cltrace
	rm -rf /tmp/clgen-cache-dir /tmp/cache-cold.jsonl /tmp/cache-warm.jsonl /tmp/cache-cold.out /tmp/cache-warm.out
	/tmp/clgen-cache -mode sample -n 3 -repos 15 -seed 9 -quiet -cache-dir /tmp/clgen-cache-dir -journal /tmp/cache-cold.jsonl >/tmp/cache-cold.out
	/tmp/clgen-cache -mode sample -n 3 -repos 15 -seed 9 -quiet -cache-dir /tmp/clgen-cache-dir -journal /tmp/cache-warm.jsonl >/tmp/cache-warm.out
	cmp /tmp/cache-cold.out /tmp/cache-warm.out
	/tmp/cltrace-cache diff /tmp/cache-cold.jsonl /tmp/cache-warm.jsonl
	@/tmp/cltrace-cache funnel /tmp/cache-warm.jsonl | grep -q "served from cache" || \
		{ echo "cache-smoke: warm run served nothing from cache"; exit 1; }
	@echo "cache-smoke: warm run byte-identical, diff clean, cache engaged"

# End-to-end accuracy gate on the learning loop: two identical-seed
# evaluation campaigns recorded into a fresh history must diff clean; a
# third run with CLGEN_FAULT_LABEL_FLIP=1 (which falsifies the predicted
# device in the journal's audit trail while leaving the in-memory results
# honest) must collapse journaled accuracy and trip `cltrace model diff`.
model-smoke:
	$(GO) build -o /tmp/clexp-model ./cmd/clexp
	$(GO) build -o /tmp/cltrace-model ./cmd/cltrace
	rm -f /tmp/model-hist.jsonl /tmp/model-run1.jsonl /tmp/model-run2.jsonl /tmp/model-run3.jsonl
	/tmp/clexp-model -scale test -run fig7,fig8 -seed 9 -quiet -journal /tmp/model-run1.jsonl >/dev/null
	/tmp/clexp-model -scale test -run fig7,fig8 -seed 9 -quiet -journal /tmp/model-run2.jsonl >/dev/null
	/tmp/cltrace-model model report /tmp/model-run1.jsonl
	/tmp/cltrace-model model record -history /tmp/model-hist.jsonl /tmp/model-run1.jsonl
	/tmp/cltrace-model model record -history /tmp/model-hist.jsonl /tmp/model-run2.jsonl
	/tmp/cltrace-model model diff /tmp/model-hist.jsonl
	CLGEN_FAULT_LABEL_FLIP=1 /tmp/clexp-model -scale test -run fig7,fig8 -seed 9 -quiet -journal /tmp/model-run3.jsonl >/dev/null
	/tmp/cltrace-model model record -history /tmp/model-hist.jsonl /tmp/model-run3.jsonl
	@if /tmp/cltrace-model model diff /tmp/model-hist.jsonl >/dev/null; then \
		echo "model-smoke: label-flip run should have tripped the accuracy gate"; exit 1; \
	else echo "model-smoke: label-flip run tripped the gate as expected"; fi
	/tmp/cltrace-model model history /tmp/model-hist.jsonl

# End-to-end precise-features gate. First, determinism: two sampling runs
# journaled under -precise-features at workers=1 and the pool default
# must diff clean (feature-agreement events are part of the canonical
# stream) and the funnel must render the agreement table. Then, accuracy:
# the Table 1 campaign must complete in precise mode with prediction
# accuracy within 2 percentage points of the heuristic run — precise
# features may move the model slightly, not break it.
feature-smoke:
	$(GO) build -o /tmp/clgen-feat ./cmd/clgen
	$(GO) build -o /tmp/cltrace-feat ./cmd/cltrace
	$(GO) build -o /tmp/clexp-feat ./cmd/clexp
	rm -f /tmp/feat-w1.jsonl /tmp/feat-wN.jsonl /tmp/feat-heur.jsonl /tmp/feat-prec.jsonl
	/tmp/clgen-feat -mode sample -n 3 -repos 15 -seed 9 -quiet -workers 1 -precise-features -journal /tmp/feat-w1.jsonl >/dev/null
	/tmp/clgen-feat -mode sample -n 3 -repos 15 -seed 9 -quiet -precise-features -journal /tmp/feat-wN.jsonl >/dev/null
	/tmp/cltrace-feat diff /tmp/feat-w1.jsonl /tmp/feat-wN.jsonl
	@grep -q '"stage":"features"' /tmp/feat-wN.jsonl || \
		{ echo "feature-smoke: run journaled no feature-agreement events"; exit 1; }
	@/tmp/cltrace-feat funnel /tmp/feat-wN.jsonl | grep -q "^features" || \
		{ echo "feature-smoke: funnel did not render the feature-agreement table"; exit 1; }
	/tmp/clexp-feat -scale test -run table1 -seed 9 -quiet -journal /tmp/feat-heur.jsonl >/dev/null
	/tmp/clexp-feat -scale test -run table1 -seed 9 -quiet -precise-features -journal /tmp/feat-prec.jsonl >/dev/null
	@h=$$(/tmp/cltrace-feat funnel -json /tmp/feat-heur.jsonl | grep -o '"prediction_accuracy": *[0-9.]*' | grep -o '[0-9.]*$$'); \
	p=$$(/tmp/cltrace-feat funnel -json /tmp/feat-prec.jsonl | grep -o '"prediction_accuracy": *[0-9.]*' | grep -o '[0-9.]*$$'); \
	echo "feature-smoke: prediction accuracy heuristic=$$h precise=$$p"; \
	awk -v h="$$h" -v p="$$p" 'BEGIN { d = (h - p) * 100; if (d < 0) d = -d; \
		if (d > 2) { printf "feature-smoke: accuracy moved %.1fpp between modes (limit 2pp)\n", d; exit 1 } \
		printf "feature-smoke: accuracy within 2pp across modes (%.2fpp)\n", d }'

# End-to-end footprint gate: the strided fixture kernel (a[2*gid])
# crashes under default §5.1 sizing (cldrive exit 2) and is rescued by
# -footprint-sizing; footprint journals are worker-count independent
# (cltrace diff-clean); and the funnel renders the footprint section
# including the rescued-kernel count.
footprint-smoke:
	$(GO) build -o /tmp/cldrive-foot ./cmd/cldrive
	$(GO) build -o /tmp/cltrace-foot ./cmd/cltrace
	rm -f /tmp/foot-w1.jsonl /tmp/foot-wN.jsonl
	@/tmp/cldrive-foot -quiet internal/driver/testdata/stride.cl >/dev/null; st=$$?; \
	if [ $$st -ne 2 ]; then \
		echo "footprint-smoke: expected default sizing to reject the strided kernel (exit 2, got $$st)"; exit 1; \
	fi; echo "footprint-smoke: default sizing rejected the strided kernel"
	/tmp/cldrive-foot -quiet -footprint-sizing internal/driver/testdata/stride.cl >/dev/null
	@echo "footprint-smoke: -footprint-sizing rescued the strided kernel"
	/tmp/cldrive-foot -quiet -footprint-sizing -workers 1 -journal /tmp/foot-w1.jsonl internal/driver/testdata/stride.cl >/dev/null
	/tmp/cldrive-foot -quiet -footprint-sizing -journal /tmp/foot-wN.jsonl internal/driver/testdata/stride.cl >/dev/null
	/tmp/cltrace-foot diff /tmp/foot-w1.jsonl /tmp/foot-wN.jsonl
	@grep -q '"stage":"footprint"' /tmp/foot-wN.jsonl || \
		{ echo "footprint-smoke: run journaled no footprint events"; exit 1; }
	@/tmp/cltrace-foot funnel /tmp/foot-wN.jsonl | grep -q "^footprint" || \
		{ echo "footprint-smoke: funnel did not render the footprint section"; exit 1; }
	@/tmp/cltrace-foot funnel /tmp/foot-wN.jsonl | grep -q "1 rescued" || \
		{ echo "footprint-smoke: funnel did not count the rescued kernel"; exit 1; }
	@echo "footprint-smoke: journals worker-independent, funnel renders footprints"

# Fuzzes the interpreter for 30s from the suite kernels and the kernels
# of interp_test.go: every input that loads must run without panicking,
# and two runs of one payload must agree exactly (FuzzInterp).
interp-fuzz:
	$(GO) test -run '^$$' -fuzz FuzzInterp -fuzztime 30s ./internal/interp

# Static-analyzer false-positive sweep over the seven benchmark suites:
# cllint exits nonzero if any hand-audited working kernel draws an
# Error-severity diagnostic (the golden copy of this output lives in
# internal/analysis/testdata/suites.golden).
lint-suites:
	$(GO) run ./cmd/cllint -suites

# End-to-end provenance gate on a tiny deterministic run: two clgen runs
# with the same seed must diff clean, a perturbed run must trip the gate.
# CI runs this after `make check` (see .github/workflows/check.yml).
provenance-smoke:
	$(GO) build -o /tmp/clgen-smoke ./cmd/clgen
	$(GO) build -o /tmp/cltrace-smoke ./cmd/cltrace
	/tmp/clgen-smoke -mode sample -n 3 -repos 15 -seed 9 -quiet -journal /tmp/prov-run1.jsonl >/dev/null
	/tmp/clgen-smoke -mode sample -n 3 -repos 15 -seed 9 -quiet -journal /tmp/prov-run2.jsonl >/dev/null
	/tmp/clgen-smoke -mode sample -n 3 -repos 10 -seed 9 -quiet -journal /tmp/prov-run3.jsonl >/dev/null
	/tmp/cltrace-smoke funnel /tmp/prov-run1.jsonl
	/tmp/cltrace-smoke diff /tmp/prov-run1.jsonl /tmp/prov-run2.jsonl
	@if /tmp/cltrace-smoke diff /tmp/prov-run1.jsonl /tmp/prov-run3.jsonl >/dev/null; then \
		echo "provenance-smoke: perturbed run should have tripped the diff gate"; exit 1; \
	else echo "provenance-smoke: perturbed run tripped the gate as expected"; fi

# End-to-end perf gate: two identical-seed runs with -perf recorded into a
# fresh history must diff clean; a third run with an injected 2s sleep in
# core.synthesize must trip clperf diff; and a single-worker run with the
# same injected sleep under a 1s stall deadline must leave a flight-
# recorder dump naming the stalled stage. -workers 1 on the stall run is
# load-bearing: with parallel workers the non-sleeping ones keep advancing
# and the (correct) watchdog never fires.
perf-smoke:
	$(GO) build -o /tmp/clgen-perf ./cmd/clgen
	$(GO) build -o /tmp/clperf-smoke ./cmd/clperf
	rm -f /tmp/perf-hist.jsonl /tmp/perf-stall.txt
	/tmp/clgen-perf -mode sample -n 3 -repos 15 -seed 9 -quiet -perf -perf-history /tmp/perf-hist.jsonl >/dev/null
	/tmp/clgen-perf -mode sample -n 3 -repos 15 -seed 9 -quiet -perf -perf-history /tmp/perf-hist.jsonl >/dev/null
	/tmp/clperf-smoke diff -threshold 100 -min-seconds 0.25 /tmp/perf-hist.jsonl
	CLGEN_FAULT_SLEEP="core.synthesize=2s" /tmp/clgen-perf -mode sample -n 3 -repos 15 -seed 9 -quiet -perf -perf-history /tmp/perf-hist.jsonl >/dev/null
	@if /tmp/clperf-smoke diff -threshold 100 -min-seconds 0.25 /tmp/perf-hist.jsonl; then \
		echo "perf-smoke: injected slowdown should have tripped the diff gate"; exit 1; \
	else echo "perf-smoke: injected slowdown tripped the gate as expected"; fi
	/tmp/clperf-smoke history /tmp/perf-hist.jsonl
	CLGEN_FAULT_SLEEP="core.synthesize=3s" /tmp/clgen-perf -mode sample -n 3 -repos 15 -seed 9 -quiet -workers 1 \
		-stall-timeout 1s -stall-dump /tmp/perf-stall.txt >/dev/null
	@test -s /tmp/perf-stall.txt || { echo "perf-smoke: stall watchdog produced no dump"; exit 1; }
	@grep -q "core.synthesize" /tmp/perf-stall.txt || { echo "perf-smoke: dump does not name the stalled stage"; exit 1; }
	@grep -q "attempt-" /tmp/perf-stall.txt || { echo "perf-smoke: dump does not list in-flight artifacts"; exit 1; }
	@echo "perf-smoke: watchdog dump produced and names the stalled stage"
