package journal

import (
	"fmt"

	"clgen/internal/gate"
)

// DefaultThresholdPct is the regression threshold cltrace diff applies
// when -threshold is not given: rate drops of more than this many
// percentage points, or count/runtime changes of more than this percent
// in the bad direction, fail the gate.
const DefaultThresholdPct = 5

// Diff compares two runs' funnels: artifact counts, acceptance rates, and
// modeled runtimes (all deterministic for a fixed seed — identical-seed
// runs always diff clean), plus informational stage-latency rows that are
// never gated (wall time varies run to run). The older run is the
// one-record baseline the newer is gated against; metrics zero in both
// runs are left out. thresholdPct <= 0 means DefaultThresholdPct.
func Diff(before, after []Event, thresholdPct float64) *gate.Report {
	if thresholdPct <= 0 {
		thresholdPct = DefaultThresholdPct
	}
	fo, fn := Funnel(before), Funnel(after)
	var old, cur gate.Record
	row := func(name, unit string, bad gate.Dir, o, n float64) {
		if o == 0 && n == 0 {
			return
		}
		old.Metrics = append(old.Metrics, gate.Metric{Name: name, Value: o, Bad: bad, Unit: unit})
		cur.Metrics = append(cur.Metrics, gate.Metric{Name: name, Value: n, Bad: bad, Unit: unit})
	}
	count := func(name string, o, n int) { row(name, "", gate.Down, float64(o), float64(n)) }
	rate := func(name string, o, n float64) { row(name, "%", gate.Down, o*100, n*100) }

	count("corpus mined", fo.Mined, fn.Mined)
	count("corpus accepted", fo.CorpusAccepted, fn.CorpusAccepted)
	rate("corpus acceptance", fo.CorpusAcceptRate(), fn.CorpusAcceptRate())
	count("rewritten units", fo.RewrittenUnits, fn.RewrittenUnits)
	count("rewritten kernels", fo.RewrittenKernels, fn.RewrittenKernels)
	count("trained epochs", fo.TrainedEpochs, fn.TrainedEpochs)
	count("samples drawn", fo.Sampled, fn.Sampled)
	count("samples accepted", fo.SampleAccepted, fn.SampleAccepted)
	rate("sample acceptance", fo.SampleAcceptRate(), fn.SampleAcceptRate())
	count("static analyzed", fo.StaticChecked, fn.StaticChecked)
	row("static rejected", "", gate.Up, float64(fo.StaticRejected), float64(fn.StaticRejected))
	count("feature kernels", fo.FeatureKernels, fn.FeatureKernels)
	rate("feature agreement", fo.FeatureAgreementRate(), fn.FeatureAgreementRate())
	count("driver loads", fo.Loads, fn.Loads)
	row("driver load failures", "", gate.Up, float64(fo.LoadFailures), float64(fn.LoadFailures))
	count("footprint kernels", fo.FootprintKernels, fn.FootprintKernels)
	count("footprint rescued", fo.FootprintRescued, fn.FootprintRescued)
	row("footprint overrun args", "", gate.Up, float64(fo.FootprintOverrun), float64(fn.FootprintOverrun))
	count("checker checks", fo.Checks, fn.Checks)
	count("checker useful work", fo.Verdicts["useful work"], fn.Verdicts["useful work"])
	rate("checker useful rate", fo.UsefulRate(), fn.UsefulRate())
	count("measurements", fo.Measured, fn.Measured)
	count("predictions", fo.Predictions, fn.Predictions)
	rate("prediction accuracy", fo.PredictionAccuracy(), fn.PredictionAccuracy())
	for _, sys := range union(fo.Systems, fn.Systems) {
		o, n := fo.Systems[sys], fn.Systems[sys]
		if o == nil {
			o = &SystemStats{}
		}
		if n == nil {
			n = &SystemStats{}
		}
		row("runtime "+sys+" cpu mean", "ms", gate.Up, o.MeanCPU(), n.MeanCPU())
		row("runtime "+sys+" gpu mean", "ms", gate.Up, o.MeanGPU(), n.MeanGPU())
	}
	for _, suite := range union(fo.Suites, fn.Suites) {
		o, n := fo.Suites[suite], fn.Suites[suite]
		if o == nil {
			o = &SuiteStats{}
		}
		if n == nil {
			n = &SuiteStats{}
		}
		row("suite "+suite+" best mean", "ms", gate.Up, o.MeanBest(), n.MeanBest())
	}
	for _, stage := range StageOrder {
		o, oko := fo.Latencies[stage]
		n, okn := fn.Latencies[stage]
		if !oko && !okn {
			continue
		}
		row("latency "+string(stage)+" p50", "ms", gate.Ungated, o.P50, n.P50)
	}

	rep := gate.Compare([]gate.Record{old}, cur, gate.Tolerance{Pct: thresholdPct, Points: thresholdPct})
	rep.Title = fmt.Sprintf("journal diff (threshold %.1f%%)", thresholdPct)
	return rep
}

func union[V any](a, b map[string]V) []string {
	seen := map[string]bool{}
	for k := range a {
		seen[k] = true
	}
	for k := range b {
		seen[k] = true
	}
	return sortedKeys(seen)
}
