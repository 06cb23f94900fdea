package main

import (
	"fmt"
	"math/rand"
	"time"

	"clgen/internal/corpus"
	"clgen/internal/driver"
	"clgen/internal/github"
	"clgen/internal/pool"
)

// The drive workload is the cldrive path over many short kernels: set-up
// mines a corpus of driveRepos repositories; the timed batch loads the
// first driveKernels of its accepted kernels once each and checks each at
// every one of driveSizes. The sizes are small so that load and checker
// overhead dominate, and so that the few kernels whose work grows with the
// square of the size do not decide the batch time alone. The corpus of
// every seed from 1 to 10 holds 3223 to 3550 kernels; a fixed count keeps
// the batch the same size whatever the seed.
const (
	driveRepos   = 300
	driveKernels = 2800
)

var driveSizes = []int{4, 16}

func driveRep(a repArgs) (*repResult, error) {
	files := github.Mine(github.MinerConfig{Seed: a.Seed, Repos: driveRepos, FilesPerRepo: 8})
	c, err := corpus.BuildEx(files, corpus.BuildOpts{Workers: a.Workers})
	if err != nil {
		return nil, err
	}
	if len(c.Kernels) < driveKernels {
		return nil, fmt.Errorf("seed %d: corpus has %d kernels, the batch needs %d", a.Seed, len(c.Kernels), driveKernels)
	}
	kernels := c.Kernels[:driveKernels]
	r := &repResult{SetupEndNS: time.Now().UnixNano()}
	clk := newClock()
	sp := startSpan()
	type op struct {
		outcome string
		ops     int64
	}
	results := pool.Map(a.Workers, len(kernels), func(i int) []op {
		start := time.Now()
		k, err := driver.Load(kernels[i])
		clk.since("driver.load_s", start)
		clk.add("driver.loads", 1)
		ops := make([]op, len(driveSizes))
		if err != nil {
			for j := range ops {
				ops[j].outcome = "load error"
			}
			return ops
		}
		for j, size := range driveSizes {
			seed := pool.DeriveSeed(a.Seed, int64(i*len(driveSizes)+j))
			start := time.Now()
			res := driver.Check(k, size, seed, driver.RunConfig{})
			d := clk.since("driver.check_s", start)
			clk.addSample("driver.check_ms", d*1e3)
			if isTimeout(res.Err) {
				clk.add("driver.timeout_checks", 1)
			}
			var items int64
			if res.Profile != nil {
				ops[j].ops, items = profileOps(res.Profile), res.Profile.WorkItems
			}
			ops[j].outcome = fmt.Sprintf("%s %d %d", res.Verdict, ops[j].ops, items)
			if a.Traced {
				replayFirstRun(k, size, seed, clk)
			}
		}
		return ops
	})
	r.WallS, r.CPUS = sp.wall(), sp.cpuUsed()
	var interpOps int64
	for _, ops := range results {
		for _, o := range ops {
			r.Outcomes = append(r.Outcomes, o.outcome)
			interpOps += o.ops
		}
	}
	r.Ops = len(r.Outcomes)
	r.Digest = digest(r.Outcomes...)
	r.Counts = counters()
	r.Counts["interp.ops"] = interpOps
	if a.Traced {
		checkLayers(r.Counts, clk)
		r.Layers = clk.v
		interpRates(r.Layers)
		cacheLayers(r.Counts, r.Layers)
		sp.goLayers(r.Layers)
	}
	return r, nil
}

// replayFirstRun repeats the checker's first execution, payload A1 from
// the check's seed, and times the interpreter alone.
func replayFirstRun(k *driver.Kernel, size int, seed int64, clk *clock) {
	p, err := driver.GeneratePayload(k, size, rand.New(rand.NewSource(seed)))
	if err != nil {
		return
	}
	start := time.Now()
	prof, err := k.Run(p, driver.RunConfig{})
	clk.since("interp.run_s", start)
	if err == nil {
		clk.add("interp.ops", float64(profileOps(prof)))
		clk.add("interp.work_items", float64(prof.WorkItems))
	}
}
