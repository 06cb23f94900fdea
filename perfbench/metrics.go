package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"clgen/internal/telemetry"
)

// metric names one reported metric and its unit.
type metric struct{ name, unit string }

// endToEndMetrics are reported by untraced runs of every workload. The
// timed batch is the workload's unit of work: one campaign, one synthesis
// batch, or one pass of checks over the corpus (README.md). Batch costs are
// CPU seconds: on a host whose CPUs are shared, wall time of the same batch
// moved by up to 2.6x from one minute to the next, CPU time by less. Every
// time is at the host's reference speed (calibrate.go). Wall time is a
// per-layer metric (batch_s, ops_per_s), as is the host's speed.
var endToEndMetrics = []metric{
	{"setup_s", "s"},
	{"batch_cpu_s", "s"},
	{"ops_per_cpu_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// memos are the internal/cache memo names.
var memos = []string{"file", "filter", "rewrite", "features", "check"}

// perLayer are reported by traced runs. A layer a workload does not reach
// reports 0.
var perLayer = func() []metric {
	ms := []metric{
		{"batch_s", "s"},
		{"ops_per_s", "1/s"},
		{"github.mine_s", "s"},
		{"corpus.build_s", "s"},
		{"corpus.accept_ratio", "ratio"},
		{"model.train_s", "s"},
		{"model.sample_s", "s"},
		{"model.chars_per_s", "1/s"},
		{"corpus.filter_sample_s", "s"},
		{"core.synth_attempts", "count"},
		{"core.accept_ratio", "ratio"},
		{"driver.load_s", "s"},
		{"driver.loads", "count"},
		{"driver.check_s", "s"},
		{"driver.checks", "count"},
		{"driver.check_p50_ms", "ms"},
		{"driver.check_p99_ms", "ms"},
		{"driver.useful_ratio", "ratio"},
		{"driver.run_failures", "count"},
		{"driver.timeout_checks", "count"},
		{"interp.run_s", "s"},
		{"interp.ops", "count"},
		{"interp.ops_per_s", "1/s"},
		{"interp.work_items_per_s", "1/s"},
		{"suites.measure_s", "s"},
		{"experiments.measure_suites_s", "s"},
		{"experiments.measure_synthetic_s", "s"},
		{"experiments.fig8_s", "s"},
		{"experiments.fig9_s", "s"},
		{"experiments.figures_s", "s"},
	}
	for _, m := range memos {
		ms = append(ms, metric{"cache.hits." + m, "count"}, metric{"cache.misses." + m, "count"})
	}
	return append(ms,
		metric{"cache.hit_ratio", "ratio"},
		metric{"go.alloc_mb", "MB"},
		metric{"go.gc_cycles", "count"},
		metric{"go.gc_cpu_frac", "ratio"},
		metric{"trace.overhead_frac", "ratio"},
		metric{"host.speed", "ratio"},
	)
}()

// endToEnd reduces untraced repetitions to the end-to-end metrics, each
// time scaled to the host's reference speed by the run's host speed.
func endToEnd(reps []*repResult, speed float64) map[string]float64 {
	col := func(f func(r *repResult) float64) float64 {
		vs := make([]float64, len(reps))
		for i, r := range reps {
			vs[i] = f(r)
		}
		return median(vs)
	}
	return map[string]float64{
		"setup_s":       col(func(r *repResult) float64 { return r.SetupS * speed }),
		"batch_cpu_s":   col(func(r *repResult) float64 { return r.CPUS * speed }),
		"ops_per_cpu_s": col(func(r *repResult) float64 { return float64(r.Ops) / (r.CPUS * speed) }),
		"peak_rss_mb":   col(func(r *repResult) float64 { return r.PeakRSSMB }),
	}
}

// wallMetrics reduces repetitions to their wall-clock batch time and
// throughput.
func wallMetrics(reps []*repResult) (batch, opsPerS float64) {
	ws, rates := make([]float64, len(reps)), make([]float64, len(reps))
	for i, r := range reps {
		ws[i], rates[i] = r.WallS, float64(r.Ops)/r.WallS
	}
	return median(ws), median(rates)
}

// layerMetrics reduces traced repetitions to the per-layer metrics. The
// untraced repetitions of the same run give the wall-clock metrics and the
// tracing overhead.
func layerMetrics(traced, untraced []*repResult, speed float64) map[string]float64 {
	out := map[string]float64{}
	for _, m := range perLayer {
		vs := make([]float64, len(traced))
		for i, r := range traced {
			vs[i] = r.Layers[m.name]
		}
		out[m.name] = median(vs)
	}
	tracedBatch, _ := wallMetrics(traced)
	out["batch_s"], out["ops_per_s"] = wallMetrics(untraced)
	out["trace.overhead_frac"] = tracedBatch/out["batch_s"] - 1
	out["host.speed"] = speed
	return out
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// span measures one timed phase: wall, process CPU and Go runtime costs.
type span struct {
	start time.Time
	cpu   float64
	rt    []metrics.Sample
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func startSpan() span { return span{start: time.Now(), cpu: cpuSeconds(), rt: readRuntime()} }

func (s span) wall() float64 { return time.Since(s.start).Seconds() }

func (s span) cpuUsed() float64 { return cpuSeconds() - s.cpu }

// goLayers reports the Go runtime's allocation and GC cost since the span
// started.
func (s span) goLayers(into map[string]float64) {
	now := readRuntime()
	val := func(i int, ss []metrics.Sample) float64 {
		switch ss[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(ss[i].Value.Uint64())
		case metrics.KindFloat64:
			return ss[i].Value.Float64()
		}
		return 0
	}
	into["go.alloc_mb"] = (val(0, now) - val(0, s.rt)) / (1 << 20)
	into["go.gc_cycles"] = val(1, now) - val(1, s.rt)
	if total := val(3, now) - val(3, s.rt); total > 0 {
		into["go.gc_cpu_frac"] = (val(2, now) - val(2, s.rt)) / total
	}
}

// counters returns every telemetry counter of this (fresh) process. They
// count work, so they repeat exactly across repetitions of one seed.
func counters() map[string]int64 {
	return telemetry.Default().Snapshot().Counters
}

// cacheLayers converts the internal/cache counters into per-layer metrics.
func cacheLayers(c map[string]int64, into map[string]float64) {
	var hits, total int64
	for _, m := range memos {
		h := c[telemetry.Label("cache_hits_total", "cache", m)]
		miss := c[telemetry.Label("cache_misses_total", "cache", m)]
		into["cache.hits."+m] = float64(h)
		into["cache.misses."+m] = float64(miss)
		hits += h
		total += h + miss
	}
	if total > 0 {
		into["cache.hit_ratio"] = float64(hits) / float64(total)
	}
}

// checkLayers reports the dynamic checker's per-layer metrics from its
// verdict counters and the check latencies sampled into clk.
func checkLayers(c map[string]int64, clk *clock) {
	useful, failures, all := verdictCounts(c)
	clk.add("driver.checks", float64(all))
	clk.add("driver.useful_ratio", ratio(float64(useful), float64(all)))
	clk.add("driver.run_failures", float64(failures))
	lat := clk.samples["driver.check_ms"]
	clk.add("driver.check_p50_ms", percentile(lat, 50))
	clk.add("driver.check_p99_ms", percentile(lat, 99))
}

// verdictCounts returns the dynamic-checker verdict counters.
func verdictCounts(c map[string]int64) (useful, failures, all int64) {
	for name, v := range c {
		if !strings.HasPrefix(name, "driver_checker_verdicts_total{") {
			continue
		}
		all += v
		switch {
		case strings.Contains(name, `"useful work"`):
			useful += v
		case strings.Contains(name, `"run failure"`):
			failures += v
		}
	}
	return useful, failures, all
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// clock accumulates per-layer busy times and counts; pool workers share it.
type clock struct {
	mu      sync.Mutex
	v       map[string]float64
	samples map[string][]float64
}

func newClock() *clock { return &clock{v: map[string]float64{}, samples: map[string][]float64{}} }

// addSample records one latency sample of name.
func (c *clock) addSample(name string, v float64) {
	c.mu.Lock()
	c.samples[name] = append(c.samples[name], v)
	c.mu.Unlock()
}

func (c *clock) add(name string, v float64) {
	c.mu.Lock()
	c.v[name] += v
	c.mu.Unlock()
}

// since adds the seconds elapsed since start to name and returns them.
func (c *clock) since(name string, start time.Time) float64 {
	d := time.Since(start).Seconds()
	c.add(name, d)
	return d
}
