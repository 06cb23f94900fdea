package mlobs

import (
	"time"

	"clgen/internal/gate"
	"clgen/internal/journal"
	"clgen/internal/telemetry"
)

// component stamps mlobs records in a gate history.
const component = "model"

// BuildRecord summarizes a journal's predicted events into a gate record
// stamped with the current machine: per evaluation, its accuracy in
// percent (gated in percentage points) and its geomean speedup over the
// static baseline (gated in percent), both regressing downward.
func BuildRecord(events []journal.Event, gitRev string) gate.Record {
	rec := gate.Record{
		Time:      time.Now(),
		Component: component,
		GitRev:    gitRev,
		Env:       telemetry.Env(),
	}
	for _, s := range Report(events).Evals {
		rec.Metrics = append(rec.Metrics,
			gate.Metric{Name: s.Key() + " accuracy", Value: s.Accuracy * 100, Bad: gate.Down, Unit: "%"},
			gate.Metric{Name: s.Key() + " speedup", Value: s.GeomeanSpeedup, Bad: gate.Down, Unit: "x"})
	}
	return rec
}
