package perf

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"clgen/internal/gate"
	"clgen/internal/telemetry"
)

func testEnv() telemetry.EnvInfo {
	return telemetry.EnvInfo{GoVersion: "go1.24", GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 8, NumCPU: 8}
}

// testRecord builds a record the way BuildRecord does, from a flat report
// with one span per stage.
func testRecord(totalSec float64, stages map[string]float64) gate.Record {
	rep := &telemetry.RunReport{
		End:       time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC),
		Component: "clgen",
		Env:       testEnv(),
		Seconds:   totalSec,
	}
	for name, s := range stages {
		rep.Stages = append(rep.Stages, telemetry.StageNode{Name: name, Seconds: s})
	}
	return BuildRecord(rep, "")
}

func metric(rec gate.Record, name string) (gate.Metric, bool) {
	for _, m := range rec.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return gate.Metric{}, false
}

// TestHistoryRoundtrip appends records and reads them back.
func TestHistoryRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hist.jsonl")
	r1 := testRecord(10, map[string]float64{"corpus.build": 4, "core.synthesize": 6})
	r1.GitRev = "abc1234"
	r2 := testRecord(11, map[string]float64{"corpus.build": 5, "core.synthesize": 6})
	for _, r := range []gate.Record{r1, r2} {
		if err := gate.Append(path, r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := gate.ReadHistory(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d records, want 2", len(got))
	}
	if m, _ := metric(got[0], total); got[0].GitRev != "abc1234" || m.Value != 10 {
		t.Fatalf("record 0 mangled: %+v", got[0])
	}
	if m, _ := metric(got[1], "corpus.build"); m.Value != 5 || m.Bad != gate.Up || m.Unit != "s" {
		t.Fatalf("record 1 stage mangled: %+v", got[1].Metrics)
	}
	var b strings.Builder
	gate.RenderHistory(&b, got, "corpus.build") // clperf history -stage
	if out := b.String(); !strings.Contains(out, "abc1234") || !strings.Contains(out, "corpus.build=5.000s") ||
		strings.Contains(out, "core.synthesize") {
		t.Fatalf("stage history:\n%s", out)
	}
}

// TestDiffIdenticalRunsPass is the CI contract: two identical-seed runs
// must never trip the gate.
func TestDiffIdenticalRunsPass(t *testing.T) {
	h := []gate.Record{
		testRecord(10, map[string]float64{"a": 4, "b": 6}),
		testRecord(10.01, map[string]float64{"a": 4.01, "b": 6.0}),
	}
	rep, err := gate.Diff(h, gate.Tolerance{Pct: 75, Floor: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BaselineRuns == 0 || !rep.OK() {
		t.Fatalf("identical runs flagged: %+v", rep)
	}
}

// TestDiffSlowedStageRegresses checks an artificially slowed stage trips
// the gate — the injected-sleep perf-smoke scenario.
func TestDiffSlowedStageRegresses(t *testing.T) {
	h := []gate.Record{
		testRecord(10, map[string]float64{"a": 4, "core.synthesize": 1}),
		testRecord(10, map[string]float64{"a": 4, "core.synthesize": 1}),
		testRecord(12, map[string]float64{"a": 4, "core.synthesize": 3}), // +2s injected
	}
	rep, err := gate.Diff(h, gate.Tolerance{Pct: 100, Floor: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatalf("slowed stage not flagged: %+v", rep)
	}
	var found bool
	for _, d := range rep.Rows {
		if d.Name == "core.synthesize" {
			found = true
			if !d.Regressed {
				t.Fatalf("core.synthesize not marked regressed: %+v", d)
			}
		}
		if d.Name == "a" && d.Regressed {
			t.Fatalf("unchanged stage flagged: %+v", d)
		}
	}
	if !found {
		t.Fatal("core.synthesize row missing from diff")
	}
	var b strings.Builder
	rep.Render(&b)
	if !strings.Contains(b.String(), "! core.synthesize") || !strings.Contains(b.String(), "1 regression(s)") {
		t.Fatalf("render lacks verdict:\n%s", b.String())
	}
}

// TestDiffMinSecondsFloor checks the absolute floor: a 10x relative blowup
// of a sub-millisecond stage is noise, not a regression.
func TestDiffMinSecondsFloor(t *testing.T) {
	h := []gate.Record{
		testRecord(1, map[string]float64{"tiny": 0.001}),
		testRecord(1, map[string]float64{"tiny": 0.010}),
	}
	rep, err := gate.Diff(h, gate.Tolerance{Pct: 75, Floor: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("sub-floor jitter flagged: %+v", rep)
	}
}

// TestDiffEnvMismatchNoBaseline checks records from a different machine
// never form a baseline.
func TestDiffEnvMismatchNoBaseline(t *testing.T) {
	other := testRecord(5, map[string]float64{"a": 5})
	other.Env.GOMAXPROCS = 2
	h := []gate.Record{other, testRecord(10, map[string]float64{"a": 10})}
	rep, err := gate.Diff(h, gate.Tolerance{Pct: 75, Floor: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BaselineRuns != 0 {
		t.Fatalf("cross-machine records formed a baseline: %+v", rep)
	}
	var b strings.Builder
	rep.Render(&b)
	if !strings.Contains(b.String(), "no comparable baseline") {
		t.Fatalf("render lacks no-baseline notice:\n%s", b.String())
	}
}

// TestDiffMedianBaseline checks one outlier baseline run doesn't mask (or
// manufacture) a regression: the median, not the mean, is the reference.
func TestDiffMedianBaseline(t *testing.T) {
	h := []gate.Record{
		testRecord(10, map[string]float64{"a": 1}),
		testRecord(10, map[string]float64{"a": 1}),
		testRecord(60, map[string]float64{"a": 50}), // one anomalous slow run
		testRecord(10, map[string]float64{"a": 1.1}),
	}
	rep, err := gate.Diff(h, gate.Tolerance{Pct: 75, Floor: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("median baseline should absorb the outlier: %+v", rep)
	}
}

// TestBuildRecord flattens a nested RunReport: same-name spans sum,
// stages come in name order, and the run total closes the record.
func TestBuildRecord(t *testing.T) {
	rep := &telemetry.RunReport{
		Component: "clgen",
		Seconds:   12,
		Env:       testEnv(),
		Stages: []telemetry.StageNode{{
			Name: "world.build", Seconds: 12,
			Children: []telemetry.StageNode{
				{Name: "driver.check", Seconds: 2},
				{Name: "driver.check", Seconds: 3},
			},
		}},
	}
	rec := BuildRecord(rep, "deadbee")
	if rec.GitRev != "deadbee" || rec.Component != "clgen" || rec.Env != testEnv() {
		t.Fatalf("record header mangled: %+v", rec)
	}
	var names []string
	for _, m := range rec.Metrics {
		names = append(names, m.Name)
	}
	if got := strings.Join(names, ","); got != "driver.check,world.build,"+total {
		t.Fatalf("metric order = %s", got)
	}
	if m, _ := metric(rec, "driver.check"); m.Value != 5 {
		t.Fatalf("driver.check = %+v", m)
	}
	if m, _ := metric(rec, "world.build"); m.Value != 12 {
		t.Fatalf("root stage = %+v", m)
	}
	if m, _ := metric(rec, total); m.Value != 12 {
		t.Fatalf("total = %+v", m)
	}
}

// TestBuildRecordStampsEnv checks a pre-Env report gets the recording
// machine's stamp so diff has a comparability key.
func TestBuildRecordStampsEnv(t *testing.T) {
	rec := BuildRecord(&telemetry.RunReport{Component: "clgen"}, "")
	if rec.Env == (telemetry.EnvInfo{}) {
		t.Fatal("record left without an env stamp")
	}
}
