package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// bin builds the benchmark once per test binary.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		panic(err)
	}
	bin = filepath.Join(dir, "perfbench")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		panic(string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// child runs one repetition in a fresh process, as the benchmark does.
func child(t *testing.T, workload string, traced bool) *repResult {
	t.Helper()
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(bin, "-child", "-workload", workload, "-seed", "1", "-trace", trace)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	var r repResult
	if err := json.Unmarshal(out, &r); err != nil {
		t.Fatal(err)
	}
	return &r
}

// Two consecutive repetitions start cold: they report the same output and
// the same exact counts, cache misses included.
func TestRepetitionsRepeatExactly(t *testing.T) {
	for _, w := range []string{"drive", "synthesize", "campaign"} {
		a, b := child(t, w, false), child(t, w, false)
		if a.Digest != b.Digest {
			t.Errorf("%s: digests differ: %s vs %s", w, a.Digest, b.Digest)
		}
		if !reflect.DeepEqual(a.Counts, b.Counts) {
			t.Errorf("%s: exact counts differ: %s", w, countsDiff(a.Counts, b.Counts))
		}
		if a.Counts[`cache_misses_total{cache="file"}`] == 0 {
			t.Errorf("%s: no cache misses counted; counters are not read", w)
		}
	}
}

// The traced repetitions assemble each workload from the layers' public
// calls; they must compute what the untraced ones compute.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, w := range []string{"campaign", "synthesize", "drive"} {
		u, tr := child(t, w, false), child(t, w, true)
		if u.Digest != tr.Digest {
			t.Errorf("%s: traced digest %s, untraced %s", w, tr.Digest, u.Digest)
		}
	}
	tr := child(t, "campaign", true)
	for _, m := range []string{"model.train_s", "suites.measure_s", "interp.run_s", "driver.check_s", "experiments.fig9_s"} {
		if tr.Layers[m] <= 0 {
			t.Errorf("traced campaign: %s = %v", m, tr.Layers[m])
		}
	}
}

// End-to-end times are medians over the repetitions, scaled by the host's
// speed.
func TestEndToEndAtReferenceSpeed(t *testing.T) {
	reps := []*repResult{
		{SetupS: 3, CPUS: 5, Ops: 100},
		{SetupS: 2, CPUS: 4, Ops: 100},
		{SetupS: 1, CPUS: 3, Ops: 100},
	}
	m := endToEnd(reps, hostSpeed([]float64{calRoundRefS, 2 * calRoundRefS, 3 * calRoundRefS}))
	if m["setup_s"] != 1 || m["batch_cpu_s"] != 2 || m["ops_per_cpu_s"] != 50 {
		t.Errorf("end-to-end metrics %v, want setup_s 1, batch_cpu_s 2, ops_per_cpu_s 50", m)
	}
}

// The calibration measures a positive cost per round, and a host running
// at the reference speed reads 1.
func TestCalibration(t *testing.T) {
	if c := newCalibrator().measure(calMin); !(c > 0) {
		t.Errorf("a calibration round took %v CPU seconds", c)
	}
	if s := hostSpeed([]float64{calRoundRefS}); s != 1 {
		t.Errorf("host speed at the reference = %v", s)
	}
}

// A whole run from the repository root passes its output checks and
// prints a result line of exactly four keys with every end-to-end metric.
func TestRunPrintsResult(t *testing.T) {
	cmd := exec.Command(bin, "--workload", "drive", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = ".."
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 || string(res["correct"]) != "true" || string(res["failed"]) != "0" {
		t.Fatalf("result line %s", lines[len(lines)-1])
	}
	var ms map[string]metricValue
	if err := json.Unmarshal(res["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	for _, m := range endToEndMetrics {
		if v, ok := ms[m.name]; !ok || v.Value <= 0 || v.Unit != m.unit {
			t.Errorf("metric %s = %+v", m.name, v)
		}
	}
	saved := filepath.Join(t.TempDir(), "a.txt")
	if err := os.WriteFile(saved, out, 0o644); err != nil {
		t.Fatal(err)
	}

	// The saved output compares with itself, and not with an output
	// stamped by another machine.
	if err := exec.Command(bin, "-compare", saved, saved).Run(); err != nil {
		t.Errorf("compare with itself: %v", err)
	}
	other := filepath.Join(t.TempDir(), "b.txt")
	if err := os.WriteFile(other, []byte(strings.Replace(string(out), `"nproc":`, `"nproc":1`, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := exec.Command(bin, "-compare", saved, other).Run(); err == nil {
		t.Error("compare accepted results with different stamps")
	}
}

// BENCHMARK.json names exactly the metrics the benchmark reports, and only
// workloads it has.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, the benchmark reports %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s %s, want %s %s", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEndMetrics)
	same("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) < 2 {
		t.Errorf("%d workloads, want at least 2", len(b.Workloads))
	}
	// drive is run by hand only (README.md).
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("unknown workload %s", w.Name)
		}
	}
}
