package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"clgen/internal/core"
	"clgen/internal/corpus"
	"clgen/internal/driver"
	"clgen/internal/experiments"
	"clgen/internal/github"
	"clgen/internal/grewe"
	"clgen/internal/interp"
	"clgen/internal/journal"
	"clgen/internal/model"
	"clgen/internal/platform"
	"clgen/internal/pool"
	"clgen/internal/suites"
)

// campaignKernels is the Figure 9 pool size the campaign renders with
// (clexp's -kernels default).
const campaignKernels = 2000

// campaignConfig is the campaign both campaign workloads run:
// experiments.TestConfig, the input of `clexp -scale test`, with a quarter
// of its executed NDRange and half of its synthetic kernels so that one
// cold campaign takes about 15 s instead of 45 s on 2 CPUs. Its seed stays
// TestConfig's (clexp ignores -seed at test scale too): how many synthetic
// kernels exhaust the 16M-step budget depends on the seed, and moved the
// synthetic sweep between 6.6 s and 23.7 s over seeds 1 to 4.
func campaignConfig(workers int) experiments.Config {
	cfg := experiments.TestConfig()
	cfg.ExecCap = 512
	cfg.SynthKernels = 30
	cfg.Workers = workers
	cfg.Log = func(string, ...any) {}
	return cfg
}

// campaignRep runs one campaign: the world build and every experiment,
// rendered as `clexp -run all` renders them. Untraced, it calls
// experiments.BuildWorld; traced, it assembles the same world from the
// layers' public calls and times each one.
func campaignRep(a repArgs) (*repResult, error) {
	cfg := campaignConfig(a.Workers)
	var b strings.Builder
	descriptiveSections(&b)
	r := &repResult{SetupEndNS: time.Now().UnixNano()}
	sp := startSpan()
	var (
		w   *experiments.World
		err error
		clk = newClock()
	)
	if a.Traced {
		w, err = assembleWorld(cfg, clk)
	} else {
		w, err = experiments.BuildWorld(cfg)
	}
	if err != nil {
		return nil, err
	}
	figs := time.Now()
	if err := worldSections(&b, w, clk); err != nil {
		return nil, err
	}
	clk.since("experiments.figures_s", figs)
	r.WallS, r.CPUS = sp.wall(), sp.cpuUsed()
	for _, bm := range suites.All() {
		r.Ops += len(bm.Datasets)
	}
	r.Ops += len(w.Synth) * len(cfg.PayloadSizes)
	r.Digest = digest(b.String())
	r.Counts = counters()
	if a.Traced {
		checkLayers(r.Counts, clk)
		r.Layers = clk.v
		r.Layers["core.synth_attempts"] = float64(w.Stats.Attempts)
		r.Layers["core.accept_ratio"] = w.Stats.AcceptRate()
		interpRates(r.Layers)
		cacheLayers(r.Counts, r.Layers)
		sp.goLayers(r.Layers)
	}
	return r, nil
}

// synthMaxSteps is the step budget experiments.BuildWorld gives each
// synthetic check.
const synthMaxSteps = 16 << 20

// assembleWorld builds the world experiments.BuildWorld builds, from the
// public calls of each layer, timing every call into clk.
func assembleWorld(cfg experiments.Config, clk *clock) (*experiments.World, error) {
	suites.ExecCap = cfg.ExecCap
	g, err := buildCLgen(github.MinerConfig{Seed: cfg.Seed, Repos: cfg.MinerRepos, FilesPerRepo: 8},
		cfg.Workers, clk)
	if err != nil {
		return nil, err
	}
	w := &experiments.World{Cfg: cfg, CLgen: g,
		Obs:      map[string]map[string][]*grewe.Observation{},
		SynthObs: map[string][]*grewe.Observation{},
	}
	// A synthesis shortfall is usable, as in BuildWorld.
	w.Synth, w.Stats, _ = g.SynthesizeWorkers(cfg.SynthKernels,
		model.SampleOpts{Seed: model.FreeSeed, Temperature: 1.0}, cfg.Seed+100, cfg.Workers)

	start := time.Now()
	if err := measureSuites(w, clk); err != nil {
		return nil, err
	}
	clk.since("experiments.measure_suites_s", start)

	start = time.Now()
	measureSynthetic(w, clk)
	clk.since("experiments.measure_synthetic_s", start)
	return w, nil
}

// buildCLgen mines, builds the corpus and trains the model, as core.Build
// does, timing each layer.
func buildCLgen(mc github.MinerConfig, workers int, clk *clock) (*core.CLgen, error) {
	start := time.Now()
	files := github.Mine(mc)
	clk.since("github.mine_s", start)
	start = time.Now()
	c, err := corpus.BuildEx(files, corpus.BuildOpts{Workers: workers})
	if err != nil {
		return nil, err
	}
	clk.since("corpus.build_s", start)
	clk.add("corpus.accept_ratio", ratio(float64(c.Stats.AcceptedFiles), float64(c.Stats.Files)))
	start = time.Now()
	g, err := core.FromCorpus(c, core.Config{Workers: workers})
	clk.since("model.train_s", start)
	return g, err
}

// measureSuites measures every (benchmark, dataset) pair on both systems.
func measureSuites(w *experiments.World, clk *clock) error {
	type job struct {
		b  *suites.Benchmark
		ds suites.Dataset
	}
	type outcome struct {
		id        string
		mAMD, mNV *driver.Measurement
		err       error
	}
	var jobs []job
	for _, b := range suites.All() {
		for _, ds := range b.Datasets {
			jobs = append(jobs, job{b, ds})
		}
	}
	results := pool.Map(w.Cfg.Workers, len(jobs), func(i int) outcome {
		j := jobs[i]
		k, err := j.b.Load()
		if err != nil {
			return outcome{err: err}
		}
		start := time.Now()
		mAMD, err := j.b.Measure(k, j.ds, platform.SystemAMD, w.Cfg.Seed+11)
		d := time.Since(start).Seconds()
		if err != nil {
			return outcome{err: err}
		}
		clk.add("suites.measure_s", d)
		clk.add("interp.run_s", d)
		// Measure extrapolates profiles above the cap; count the work
		// that ran.
		scale := float64(j.ds.N) / float64(min(j.ds.N, suites.ExecCap))
		clk.add("interp.ops", math.Round(float64(profileOps(mAMD.Profile))/scale))
		clk.add("interp.work_items", math.Round(float64(mAMD.Profile.WorkItems)/scale))
		mNV, err := driver.MeasureProfile(k, mAMD.Profile, mAMD.Vector.Transfer,
			mAMD.GlobalSize, int(mAMD.Vector.WgSize), platform.SystemNVIDIA)
		if err != nil {
			return outcome{err: err}
		}
		mNV.Kernel = mAMD.Kernel
		return outcome{id: journal.ID(k.Src), mAMD: mAMD, mNV: mNV}
	})
	for _, sys := range experiments.Systems {
		w.Obs[sys.Name] = map[string][]*grewe.Observation{}
	}
	for i, o := range results {
		if o.err != nil {
			return fmt.Errorf("experiments: %w", o.err)
		}
		b := jobs[i].b
		for _, m := range []*driver.Measurement{o.mAMD, o.mNV} {
			sys := platform.SystemAMD.Name
			if m == o.mNV {
				sys = platform.SystemNVIDIA.Name
			}
			w.Obs[sys][b.Suite] = append(w.Obs[sys][b.Suite], &grewe.Observation{Bench: b.ID(), ID: o.id, M: m})
		}
	}
	return nil
}

// measureSynthetic drives every synthetic kernel through the host driver
// at each payload size.
func measureSynthetic(w *experiments.World, clk *clock) {
	type pair struct{ mAMD, mNV *driver.Measurement }
	results := pool.Map(w.Cfg.Workers, len(w.Synth), func(i int) []pair {
		start := time.Now()
		k, err := driver.Load(w.Synth[i])
		clk.since("driver.load_s", start)
		clk.add("driver.loads", 1)
		if err != nil {
			return nil
		}
		var ps []pair
		for _, size := range w.Cfg.PayloadSizes {
			start := time.Now()
			mAMD, err := driver.Measure(k, size, platform.SystemAMD, w.Cfg.Seed+int64(i)*31,
				driver.MeasureConfig{ExecCap: suites.ExecCap, Run: driver.RunConfig{MaxSteps: synthMaxSteps}})
			d := clk.since("driver.check_s", start)
			clk.addSample("driver.check_ms", d*1e3)
			if err != nil {
				if isTimeout(err) {
					clk.add("driver.timeout_checks", 1)
				}
				continue
			}
			mAMD.Kernel = fmt.Sprintf("clgen-%04d@%d", i, size)
			mNV, err := driver.MeasureProfile(k, mAMD.Profile, mAMD.Vector.Transfer,
				mAMD.GlobalSize, int(mAMD.Vector.WgSize), platform.SystemNVIDIA)
			if err != nil {
				continue
			}
			mNV.Kernel = mAMD.Kernel
			ps = append(ps, pair{mAMD, mNV})
		}
		return ps
	})
	for i, ps := range results {
		id := journal.ID(w.Synth[i])
		for _, p := range ps {
			w.SynthObs[platform.SystemAMD.Name] = append(w.SynthObs[platform.SystemAMD.Name],
				&grewe.Observation{Bench: "synthetic", ID: id, M: p.mAMD})
			w.SynthObs[platform.SystemNVIDIA.Name] = append(w.SynthObs[platform.SystemNVIDIA.Name],
				&grewe.Observation{Bench: "synthetic", ID: id, M: p.mNV})
		}
	}
}

// profileOps is the interpreter's operation count in a profile. The
// interpreter never fills Profile.Steps, so this count stands for its work.
func profileOps(p *interp.Profile) int64 {
	return p.IntOps + p.FloatOps + p.GlobalLoads + p.GlobalStores + p.LocalLoads +
		p.LocalStores + p.PrivateOps + p.Branches + p.Barriers + p.Atomics
}

// interpRates turns the interpreter's timed counts into rates.
func interpRates(l map[string]float64) {
	l["interp.ops_per_s"] = ratio(l["interp.ops"], l["interp.run_s"])
	l["interp.work_items_per_s"] = ratio(l["interp.work_items"], l["interp.run_s"])
	delete(l, "interp.work_items")
}

// isTimeout reports a check that used up its step budget. The checker
// formats the cause into its error text rather than wrapping it.
func isTimeout(err error) bool {
	return err != nil && strings.Contains(err.Error(), interp.ErrStepLimit.Error())
}

// section renders one clexp output section.
func section(b *strings.Builder, name, body string) {
	fmt.Fprintf(b, "==== %s ====\n%s\n", name, body)
}

// descriptiveSections renders the sections of `clexp -run all` that need
// no world.
func descriptiveSections(b *strings.Builder) {
	section(b, "Table 2: model features", experiments.RenderTable2())
	section(b, "Table 3: benchmarks", experiments.RenderTable3())
	section(b, "Table 4: platforms", experiments.RenderTable4())
	section(b, "Figure 2: benchmark usage survey", experiments.RenderFigure2(experiments.Figure2()))
}

// worldSections runs every experiment that needs the built world and
// renders it the way `clexp -run all` does, timing each into clk.
func worldSections(b *strings.Builder, w *experiments.World, clk *clock) error {
	type exp struct {
		name, title string
		run         func() (string, error)
	}
	exps := []exp{
		{"corpus", "§4.1 corpus statistics", func() (string, error) {
			return experiments.RenderCorpusStats(experiments.CorpusStats(w)), nil
		}},
		{"table1", "Table 1: cross-suite performance (AMD)", func() (string, error) {
			r, err := experiments.Table1(w)
			return render(r, err)
		}},
		{"fig3", "Figure 3: Parboil feature space (NVIDIA)", func() (string, error) {
			r, err := experiments.Figure3(w)
			return render(r, err)
		}},
		{"fig7", "Figure 7: Grewe model ± CLgen on NPB", func() (string, error) {
			r, err := experiments.Figure7(w)
			return render(r, err)
		}},
		{"fig8", "Figure 8: extended model over all suites", func() (string, error) {
			r, err := experiments.Figure8(w)
			return render(r, err)
		}},
		{"fig9", "Figure 9: feature-space matches", func() (string, error) {
			r, err := experiments.Figure9(w, campaignKernels)
			return render(r, err)
		}},
		{"turing", "§6.1 human-or-machine test", func() (string, error) {
			r, err := experiments.TuringTest(w)
			return render(r, err)
		}},
		{"collisions", "Listing 2: feature collisions", func() (string, error) {
			r, err := experiments.Collisions(w)
			return render(r, err)
		}},
	}
	for _, e := range exps {
		start := time.Now()
		body, err := e.run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		clk.since("experiments."+e.name+"_s", start)
		section(b, e.title, body)
	}
	return nil
}

type renderer interface{ Render() string }

func render[R renderer](r R, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.Render(), nil
}
