package main

import (
	"math/rand"
	"time"

	"clgen/internal/core"
	"clgen/internal/corpus"
	"clgen/internal/github"
	"clgen/internal/model"
	"clgen/internal/pool"
)

// The synthesize workload is `clgen -mode sample -repos 150 -n 1000`: its
// set-up mines, builds the corpus and trains the model; the timed batch
// synthesizes synthKernels accepted kernels.
const (
	synthRepos   = 150
	synthKernels = 1000
	// synthTemperature is clgen's -temp default.
	synthTemperature = 0.9
)

func synthesizeRep(a repArgs) (*repResult, error) {
	clk := newClock()
	g, err := buildCLgen(github.MinerConfig{Seed: a.Seed, Repos: synthRepos, FilesPerRepo: 8}, a.Workers, clk)
	if err != nil {
		return nil, err
	}
	r := &repResult{SetupEndNS: time.Now().UnixNano()}
	opts := model.SampleOpts{Seed: model.FreeSeed, Temperature: synthTemperature}
	sp := startSpan()
	var (
		kernels []string
		stats   core.SynthesisStats
	)
	if a.Traced {
		kernels, stats = synthesizeTraced(g, synthKernels, opts, a.Seed+100, a.Workers, clk)
	} else {
		// A shortfall shows as a digest that differs from the reference.
		kernels, stats, _ = g.SynthesizeWorkers(synthKernels, opts, a.Seed+100, a.Workers)
	}
	r.WallS, r.CPUS = sp.wall(), sp.cpuUsed()
	// An operation is one attempt, a sample and its rejection filter: the
	// attempts needed for synthKernels differ by up to 35% between seeds,
	// the cost of an attempt far less.
	r.Ops = stats.Attempts
	r.Digest = digest(kernels...)
	r.Counts = counters()
	if a.Traced {
		r.Layers = clk.v
		r.Layers["core.synth_attempts"] = float64(stats.Attempts)
		r.Layers["core.accept_ratio"] = stats.AcceptRate()
		r.Layers["model.chars_per_s"] = ratio(clk.v["model.chars"], clk.v["model.sample_s"])
		delete(r.Layers, "model.chars")
		cacheLayers(r.Counts, r.Layers)
		sp.goLayers(r.Layers)
	}
	return r, nil
}

// synthesizeTraced is core.(*CLgen).SynthesizeWorkers assembled from the
// model's sampler and the corpus rejection filter, timing each call.
func synthesizeTraced(g *core.CLgen, n int, opts model.SampleOpts, seed int64, workers int, clk *clock) ([]string, core.SynthesisStats) {
	type attempt struct {
		kernel string
		res    corpus.FilterResult
	}
	stats := core.SynthesisStats{Requested: n, Reasons: map[corpus.RejectReason]int{}}
	seen := map[string]bool{}
	var out []string
	pool.Scan(workers, max(n*40, 400),
		func(i int) attempt {
			rng := rand.New(rand.NewSource(pool.DeriveSeed(seed, int64(i))))
			start := time.Now()
			k := g.Model.SampleKernel(rng, opts)
			clk.since("model.sample_s", start)
			clk.add("model.chars", float64(len(k)))
			start = time.Now()
			res, _ := corpus.FilterCached(k, corpus.FilterOpts{Static: g.Static})
			clk.since("corpus.filter_sample_s", start)
			return attempt{k, res}
		},
		func(i int, a attempt) bool {
			stats.Attempts++
			switch {
			case !a.res.OK:
				stats.Reasons[a.res.Reason]++
			case !seen[a.kernel]:
				seen[a.kernel] = true
				out = append(out, a.kernel)
				stats.Accepted++
			}
			return len(out) < n
		})
	return out, stats
}
