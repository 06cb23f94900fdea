package perf

import (
	"sort"

	"clgen/internal/gate"
	"clgen/internal/telemetry"
)

// total names the whole-run wall time among a record's per-stage metrics.
const total = "(total)"

// BuildRecord flattens a RunReport's stage tree into a gate record: one
// metric per stage name, summing spans that share it (parallel stages
// open many), in name order, then the run's total. Every metric is
// seconds and regresses upward.
func BuildRecord(rep *telemetry.RunReport, gitRev string) gate.Record {
	rec := gate.Record{
		Time:      rep.End,
		Component: rep.Component,
		GitRev:    gitRev,
		Env:       rep.Env,
	}
	if rec.Env == (telemetry.EnvInfo{}) {
		// Pre-Env reports: stamp the recording machine so diff still has
		// a comparability key (correct in the common record-where-you-ran
		// case).
		rec.Env = telemetry.Env()
	}
	seconds := map[string]float64{}
	var walk func(nodes []telemetry.StageNode)
	walk = func(nodes []telemetry.StageNode) {
		for _, n := range nodes {
			seconds[n.Name] += n.Seconds
			walk(n.Children)
		}
	}
	walk(rep.Stages)
	names := make([]string, 0, len(seconds))
	for name := range seconds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rec.Metrics = append(rec.Metrics, stageMetric(name, seconds[name]))
	}
	rec.Metrics = append(rec.Metrics, stageMetric(total, rep.Seconds))
	return rec
}

func stageMetric(name string, seconds float64) gate.Metric {
	return gate.Metric{Name: name, Value: seconds, Bad: gate.Up, Unit: "s"}
}
