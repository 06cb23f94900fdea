package mlobs

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"clgen/internal/driver"
	"clgen/internal/features"
	"clgen/internal/gate"
	"clgen/internal/grewe"
	"clgen/internal/interp"
	"clgen/internal/journal"
	"clgen/internal/platform"
	"clgen/internal/telemetry"
)

// obs fabricates an observation with fixed features and device times.
func obs(bench string, cpu, gpu float64) *grewe.Observation {
	oracle := platform.CPU
	if gpu < cpu {
		oracle = platform.GPU
	}
	return &grewe.Observation{
		Bench: bench,
		M: &driver.Measurement{
			Kernel: bench,
			Vector: features.Vector{
				Static:  features.Static{Comp: 10, Mem: 5, Coalesced: 5},
				Dynamic: features.Dynamic{Transfer: 1000, WgSize: 64},
			},
			Profile: &interp.Profile{},
			CPUTime: cpu, GPUTime: gpu,
			Oracle: oracle,
		},
	}
}

func capture(t *testing.T, fn func()) []journal.Event {
	t.Helper()
	var buf bytes.Buffer
	w := journal.NewWriter(&buf, 0)
	journal.SetActive(w)
	defer journal.SetActive(nil)
	fn()
	journal.SetActive(nil)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := journal.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

func TestEmitPredictions(t *testing.T) {
	preds := []grewe.Prediction{
		{Obs: obs("a", 10, 1), Predicted: platform.GPU, Fold: "a"}, // correct
		{Obs: obs("b", 1, 10), Predicted: platform.GPU, Fold: "b"}, // wrong
	}
	events := capture(t, func() {
		EmitPredictions("figure7", "AMD", "grewe", platform.CPU, preds, grewe.Combined)
	})
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	e := events[0]
	if e.Stage != journal.StagePredicted || e.Experiment != "figure7" ||
		e.System != "AMD" || e.Variant != "grewe" || e.Fold != "a" {
		t.Fatalf("event coordinates wrong: %+v", e)
	}
	if e.Predicted != "GPU" || e.Oracle != "GPU" {
		t.Fatalf("devices wrong: predicted=%q oracle=%q", e.Predicted, e.Oracle)
	}
	if len(e.Features) != 4 {
		t.Fatalf("features width %d, want 4 (combined)", len(e.Features))
	}
	if e.Baseline != "CPU" || math.Abs(e.Speedup-10) > 1e-9 {
		t.Fatalf("baseline %q speedup %v, want CPU 10x", e.Baseline, e.Speedup)
	}
	if e.ID == "" {
		t.Fatal("event ID empty: obsID fallback failed")
	}
	if events[1].Predicted != "GPU" || events[1].Oracle != "CPU" {
		t.Fatalf("second event devices wrong: %+v", events[1])
	}
}

func TestEmitPredictionsLabelFlip(t *testing.T) {
	t.Setenv(telemetry.FaultLabelFlipEnv, "1")
	preds := []grewe.Prediction{
		{Obs: obs("a", 10, 1), Predicted: platform.GPU}, // correct in memory
	}
	events := capture(t, func() {
		EmitPredictions("figure7", "AMD", "grewe", platform.CPU, preds, grewe.Combined)
	})
	if len(events) != 1 {
		t.Fatalf("got %d events", len(events))
	}
	// The journal records the flipped label; the in-memory prediction and
	// the honest speedup are untouched.
	if events[0].Predicted != "CPU" {
		t.Fatalf("flip fixture did not flip: predicted=%q", events[0].Predicted)
	}
	if events[0].Oracle != "GPU" {
		t.Fatalf("flip fixture touched the oracle: %q", events[0].Oracle)
	}
	if !preds[0].Correct() {
		t.Fatal("flip fixture mutated the in-memory prediction")
	}
}

func TestReportAggregation(t *testing.T) {
	events := []journal.Event{
		{Stage: journal.StageTrained, Model: "m1", Variant: "lstm", Epoch: 1, Loss: 2.0, ClipRate: 0.1},
		{Stage: journal.StageTrained, Model: "m1", Variant: "lstm", Epoch: 2, Loss: 1.5, ClipRate: 0.05},
		{Stage: journal.StagePredicted, Experiment: "figure7", System: "AMD", Variant: "grewe",
			Fold: "a", Predicted: "GPU", Oracle: "GPU", Baseline: "CPU", Speedup: 4},
		{Stage: journal.StagePredicted, Experiment: "figure7", System: "AMD", Variant: "grewe",
			Fold: "b", Predicted: "CPU", Oracle: "GPU", Baseline: "CPU", Speedup: 1},
		{Stage: journal.StagePredicted, Experiment: "figure8", System: "NVIDIA", Variant: "extended+clgen",
			Fold: "a", Predicted: "CPU", Oracle: "CPU", Baseline: "GPU"},
	}
	r := Report(events)
	if len(r.Curves) != 1 {
		t.Fatalf("curves %d, want 1", len(r.Curves))
	}
	c := r.Curves[0]
	if c.Model != "m1" || c.Backend != "lstm" || len(c.Epochs) != 2 || c.FinalLoss() != 1.5 {
		t.Fatalf("curve wrong: %+v", c)
	}
	if len(r.Evals) != 2 {
		t.Fatalf("evals %d, want 2", len(r.Evals))
	}
	// Sorted by key: figure7 before figure8.
	f7 := r.Evals[0]
	if f7.Experiment != "figure7" || f7.N != 2 || f7.Correct != 1 || f7.Accuracy != 0.5 {
		t.Fatalf("figure7 summary wrong: %+v", f7)
	}
	if math.Abs(f7.GeomeanSpeedup-2) > 1e-9 { // geomean(4, 1) = 2
		t.Fatalf("geomean %v, want 2", f7.GeomeanSpeedup)
	}
	if f7.Confusion["GPU->GPU"] != 1 || f7.Confusion["CPU->GPU"] != 1 {
		t.Fatalf("confusion wrong: %v", f7.Confusion)
	}
	if f7.Folds["a"].Correct != 1 || f7.Folds["b"].Correct != 0 {
		t.Fatalf("folds wrong: %+v", f7.Folds)
	}
	out := r.Render()
	for _, want := range []string{"m1", "figure7 / AMD / grewe", "50.0%", "confusion"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// rec builds the record BuildRecord makes of one figure7 evaluation with
// the given accuracy and geomean speedup.
func rec(acc, speedup float64) gate.Record {
	var events []journal.Event
	for i := 0; i < 100; i++ {
		ev := journal.Event{Stage: journal.StagePredicted, Experiment: "figure7", System: "AMD",
			Variant: "grewe", Predicted: "GPU", Oracle: "GPU", Speedup: speedup}
		if i >= int(math.Round(acc*100)) {
			ev.Oracle = "CPU"
		}
		events = append(events, ev)
	}
	r := BuildRecord(events, "")
	r.Time = time.Unix(0, 0)
	return r
}

// modelTolerance is the rule cltrace model diff applies by default.
var modelTolerance = gate.Tolerance{Pct: 5, Points: 2}

func TestDiffGate(t *testing.T) {
	// Identical reruns gate clean.
	hist := []gate.Record{rec(0.8, 2.0), rec(0.8, 2.0), rec(0.8, 2.0)}
	d, err := gate.Diff(hist, modelTolerance)
	if err != nil {
		t.Fatal(err)
	}
	if !d.OK() {
		t.Fatalf("identical history tripped the gate: %+v", d.Rows)
	}
	// Accuracy collapse trips it.
	d, err = gate.Diff(append(hist[:2:2], rec(0.4, 2.0)), modelTolerance)
	if err != nil {
		t.Fatal(err)
	}
	if bad := d.Regressions(); len(bad) != 1 || bad[0].Name != "figure7 / AMD / grewe accuracy" {
		t.Fatalf("accuracy drop did not trip the gate: %+v", d.Rows)
	}
	// Speedup collapse trips it too.
	d, err = gate.Diff(append(hist[:2:2], rec(0.8, 1.0)), modelTolerance)
	if err != nil {
		t.Fatal(err)
	}
	if bad := d.Regressions(); len(bad) != 1 || bad[0].Name != "figure7 / AMD / grewe speedup" {
		t.Fatalf("speedup drop did not trip the gate: %+v", d.Rows)
	}
	// Small jitter within thresholds stays clean.
	d, err = gate.Diff(append(hist[:2:2], rec(0.79, 1.96)), modelTolerance)
	if err != nil {
		t.Fatal(err)
	}
	if !d.OK() {
		t.Fatalf("within-threshold change tripped the gate: %+v", d.Rows)
	}
	// A speedup over a zero baseline is never a regression.
	d, err = gate.Diff([]gate.Record{rec(0.8, 0), rec(0.8, 1.0)}, modelTolerance)
	if err != nil {
		t.Fatal(err)
	}
	if !d.OK() {
		t.Fatalf("speedup against a zero baseline tripped the gate: %+v", d.Rows)
	}
	// A record from a different machine forms no baseline.
	other := rec(0.8, 2.0)
	other.Env.NumCPU++
	d, err = gate.Diff([]gate.Record{other, rec(0.8, 2.0)}, modelTolerance)
	if err != nil {
		t.Fatal(err)
	}
	if d.BaselineRuns != 0 {
		t.Fatal("cross-machine record formed a baseline")
	}
}

func TestHistoryRoundTrip(t *testing.T) {
	path := t.TempDir() + "/hist.jsonl"
	if err := gate.Append(path, rec(0.8, 2.0)); err != nil {
		t.Fatal(err)
	}
	if err := gate.Append(path, rec(0.75, 1.9)); err != nil {
		t.Fatal(err)
	}
	hist, err := gate.ReadHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 {
		t.Fatalf("read %d records", len(hist))
	}
	if m := hist[1].Metrics[0]; m.Value != 75 || m.Unit != "%" || m.Bad != gate.Down {
		t.Fatalf("round-trip accuracy %+v", m)
	}
	var b strings.Builder
	gate.RenderHistory(&b, hist, "")
	if !strings.Contains(b.String(), "figure7 / AMD / grewe accuracy=75.0%") {
		t.Fatalf("history render missing eval key:\n%s", b.String())
	}
}

func TestBuildRecordFromEvents(t *testing.T) {
	events := []journal.Event{
		{Stage: journal.StagePredicted, Experiment: "figure7", System: "AMD", Variant: "grewe",
			Predicted: "GPU", Oracle: "GPU", Speedup: 2},
	}
	r := BuildRecord(events, "abc1234")
	want := []gate.Metric{
		{Name: "figure7 / AMD / grewe accuracy", Value: 100, Bad: gate.Down, Unit: "%"},
		{Name: "figure7 / AMD / grewe speedup", Value: 2, Bad: gate.Down, Unit: "x"},
	}
	if r.GitRev != "abc1234" || r.Component != component || !reflect.DeepEqual(r.Metrics, want) {
		t.Fatalf("record wrong: %+v", r)
	}
	if r.Env == (telemetry.EnvInfo{}) {
		t.Fatal("record missing machine stamp")
	}
}
