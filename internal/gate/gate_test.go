package gate

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clgen/internal/telemetry"
)

var testEnv = telemetry.EnvInfo{GoVersion: "go1.24", GOOS: "linux", GOARCH: "amd64", GOMAXPROCS: 8, NumCPU: 8}

// run is a record of component "c" on testEnv with one metric m.
func run(m Metric) Record {
	return Record{Component: "c", Env: testEnv, Metrics: []Metric{m}}
}

func TestDiffRules(t *testing.T) {
	secs := func(v float64) Metric { return Metric{Name: "m", Value: v, Bad: Up, Unit: "s"} }
	rate := func(v float64) Metric { return Metric{Name: "m", Value: v, Bad: Down, Unit: "%"} }
	count := func(v float64) Metric { return Metric{Name: "m", Value: v, Bad: Down} }
	otherEnv := run(secs(1))
	otherEnv.Env.NumCPU = 2
	otherComponent := run(secs(1))
	otherComponent.Component = "d"

	tol := Tolerance{Pct: 50, Points: 5, Floor: 0.5}
	for _, tc := range []struct {
		name      string
		history   []Record
		base      float64
		delta     float64
		regressed bool
		noRow     bool
	}{
		{name: "relative over threshold and floor", history: []Record{run(secs(2)), run(secs(4))},
			base: 2, delta: 100, regressed: true},
		{name: "relative over threshold under floor", history: []Record{run(secs(0.25)), run(secs(0.5))},
			base: 0.25, delta: 100},
		{name: "relative under threshold over floor", history: []Record{run(secs(10)), run(secs(14))},
			base: 10, delta: 40},
		{name: "relative in the good direction", history: []Record{run(secs(4)), run(secs(1))},
			base: 4, delta: -75},
		{name: "points over threshold", history: []Record{run(rate(50)), run(rate(44))},
			base: 50, delta: -6, regressed: true},
		{name: "points under threshold", history: []Record{run(rate(50)), run(rate(46))},
			base: 50, delta: -4},
		{name: "ungated never regresses",
			history: []Record{run(Metric{Name: "m", Value: 1, Unit: "ms"}), run(Metric{Name: "m", Value: 9, Unit: "ms"})},
			base:    1, delta: 800},
		{name: "zero old, rise in bad direction", history: []Record{run(secs(0)), run(secs(1))},
			base: 0, delta: math.Inf(1), regressed: true},
		{name: "zero old, rise in good direction", history: []Record{run(count(0)), run(count(3))},
			base: 0, delta: math.Inf(1)},
		{name: "zero old and new", history: []Record{run(count(0)), run(count(0))},
			base: 0, delta: 0},
		{name: "other machine forms no baseline", history: []Record{otherEnv, run(secs(9))},
			noRow: true},
		{name: "other component forms no baseline", history: []Record{otherComponent, run(secs(9))},
			noRow: true},
		{name: "metric new in this run is skipped",
			history: []Record{run(Metric{Name: "old", Value: 1, Bad: Up}), run(secs(9))},
			noRow:   true},
		{name: "median of an even count",
			history: []Record{run(secs(1)), run(secs(100)), run(secs(2)), run(secs(3)), run(secs(3.75))},
			base:    2.5, delta: 50},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := Diff(tc.history, tol)
			if err != nil {
				t.Fatal(err)
			}
			if tc.noRow {
				if len(rep.Rows) != 0 || !rep.OK() {
					t.Fatalf("rows = %+v, want none", rep.Rows)
				}
				return
			}
			if len(rep.Rows) != 1 {
				t.Fatalf("rows = %+v, want one", rep.Rows)
			}
			r := rep.Rows[0]
			if r.Base != tc.base || r.Delta() != tc.delta || r.Regressed != tc.regressed || rep.OK() == tc.regressed {
				t.Fatalf("row = %+v delta %v, want base %v delta %v regressed %v",
					r, r.Delta(), tc.base, tc.delta, tc.regressed)
			}
		})
	}
}

func TestDiffEmptyHistory(t *testing.T) {
	if _, err := Diff(nil, Tolerance{}); err == nil {
		t.Fatal("empty history diffed without error")
	}
}

// TestReadHistoryRejectsMetricLessRecord checks a record without metrics
// (such as a line in an older history format) is an error naming its
// line, not a silent baseline that gates nothing.
func TestReadHistoryRejectsMetricLessRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "h.jsonl")
	good := `{"component":"c","metrics":[{"name":"m","v":1}]}`
	old := `{"component":"c","seconds":3,"stages":{"a":{"s":1}}}`
	if err := os.WriteFile(path, []byte(good+"\n\n"+old+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ReadHistory(path)
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("err = %v, want a metric-less record error at line 3", err)
	}
}
