// Command perfbench is the repository's benchmark. It runs one workload for
// a number of seconds, checks the program's outputs, and prints one JSON
// result line; README.md describes the workloads and metrics.
//
//	sh perfbench/run.sh --workload campaign --seed 1 --seconds 10 --trace 0
//
// Every repetition runs in a fresh child process of this binary, so the
// in-memory memos and package-level settings of one repetition cannot leak
// into the next.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"clgen/internal/telemetry"
)

// runDeadline bounds a whole run; children still running then are killed.
const runDeadline = 170 * time.Second

// childWorkers is the number of workers, and of Go processors, of every
// repetition. With two, on the 2-CPU host the benchmark was built on, the
// same cold campaign took 20 to 30 CPU seconds from one repetition to the
// next; with one, three of four repetitions took 19.1 to 19.2 CPU
// seconds. The two threads of one process slow each other by a share that
// changes from run to run, and the end-to-end metrics count CPU seconds,
// not parallel speed-up.
const childWorkers = 1

// minReps is the fewest repetitions of an untraced run, so that every
// timing is a median of at least two samples.
const minReps = 2

// workload is one benchmark workload.
type workload struct {
	// rep runs one repetition in the current, fresh process.
	rep func(a repArgs) (*repResult, error)
	// refKey names the reference digests the workload is checked against.
	refKey string
	// fixedSeed, when set, is the seed of the workload's input, which then
	// does not depend on --seed (see campaignConfig).
	fixedSeed int64
}

var workloads = map[string]workload{
	"campaign":   {rep: campaignRep, refKey: "campaign", fixedSeed: campaignConfig(0).Seed},
	"synthesize": {rep: synthesizeRep, refKey: "synthesize"},
	"drive":      {rep: driveRep, refKey: "drive"},
}

// repArgs configures one repetition.
type repArgs struct {
	Seed    int64
	Traced  bool
	Workers int
}

// repResult is what one repetition reports to the parent.
type repResult struct {
	// SetupEndNS is the wall clock (Unix ns) when set-up finished; the
	// parent subtracts its spawn time, so setup_s includes process start.
	SetupEndNS int64   `json:"setup_end_ns"`
	WallS      float64 `json:"wall_s"`
	CPUS       float64 `json:"cpu_s"`
	Ops        int     `json:"ops"`
	PeakRSSMB  float64 `json:"peak_rss_mb"`
	// Digest is the SHA-256 of the repetition's output.
	Digest string `json:"digest"`
	// Outcomes are per-operation outputs checked one by one (drive).
	Outcomes []string `json:"outcomes,omitempty"`
	// Counts must repeat exactly across repetitions of one seed.
	Counts map[string]int64 `json:"counts"`
	// Layers holds the per-layer metrics of a traced repetition.
	Layers map[string]float64 `json:"layers,omitempty"`

	// SetupS is measured by the parent, from the spawn.
	SetupS float64 `json:"-"`
}

// stamp identifies the machine and toolchain a result was measured on.
type stamp struct {
	telemetry.EnvInfo
	Nproc int `json:"nproc"`
}

func envStamp() stamp { return stamp{EnvInfo: telemetry.Env(), Nproc: runtime.NumCPU()} }

func main() {
	var (
		name    = flag.String("workload", "", "campaign | synthesize | drive")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "how long to measure")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from traced repetitions")
		child   = flag.Bool("child", false, "internal: run one repetition in this process")
		record  = flag.Bool("record", false, "write the run's outputs as the reference for its seed")
		compare = flag.Bool("compare", false, "compare two saved outputs: perfbench -compare OLD NEW")
	)
	flag.Parse()
	var err error
	switch {
	case *compare:
		err = compareFiles(flag.Args())
	case *child:
		runtime.GOMAXPROCS(childWorkers)
		err = runChild(*name, repArgs{Seed: *seed, Traced: *trace == 1, Workers: childWorkers})
	default:
		err = run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *record)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runChild runs one repetition and prints its result as JSON.
func runChild(name string, a repArgs) error {
	w, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	r, err := w.rep(a)
	if err != nil {
		return err
	}
	r.PeakRSSMB = peakRSSMB()
	return json.NewEncoder(os.Stdout).Encode(r)
}

// spawner runs repetitions in child processes and calibrates the host's
// speed after each one.
type spawner struct {
	ctx  context.Context
	name string
	seed int64
	cal  *calibrator
	// cals are the CPU seconds per calibration round: one before the first
	// repetition and one after each.
	cals []float64
}

func newSpawner(ctx context.Context, name string, seed int64) *spawner {
	s := &spawner{ctx: ctx, name: name, seed: seed, cal: newCalibrator()}
	s.cal.measure(calMin) // warm-up
	s.cals = []float64{s.cal.measure(2 * calMin)}
	fmt.Fprintf(os.Stderr, "perfbench: %s: host speed %.3f\n", name, calRoundRefS/s.cals[0])
	return s
}

// spawn runs one repetition in a fresh process and calibrates after it. The
// set-up time is measured from the spawn.
func (s *spawner) spawn(traced bool) (*repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.CommandContext(s.ctx, exe, "-child", "-workload", s.name,
		"-seed", strconv.FormatInt(s.seed, 10), "-trace", trace)
	cmd.Stderr = os.Stderr
	// A child must not outlive a parent that is killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}
	wall := time.Since(start)
	var r repResult
	if err := json.Unmarshal(out, &r); err != nil {
		return nil, fmt.Errorf("%s: decoding result: %w", s.name, err)
	}
	r.SetupS = time.Unix(0, r.SetupEndNS).Sub(start).Seconds()
	cal := s.cal.measure(min(calMax, max(calMin, time.Duration(calShare*float64(wall)))))
	s.cals = append(s.cals, cal)
	fmt.Fprintf(os.Stderr, "perfbench: %s traced=%v: set-up %.3f s, batch %.3f s wall %.3f s CPU; then host speed %.3f\n",
		s.name, traced, r.SetupS, r.WallS, r.CPUS, calRoundRefS/cal)
	return &r, nil
}

// record is the full result of one run. The last line of standard output
// carries its correctness fields and metrics; the line before it carries
// the whole record, stamped, for -compare.
type record struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Trace    bool               `json:"trace"`
	Env      stamp              `json:"env"`
	Reps     int                `json:"reps"`
	Digest   string             `json:"digest"`
	Counts   map[string]int64   `json:"counts"`
	Metrics  map[string]float64 `json:"metrics"`
	Problems []string           `json:"problems,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// repeat runs one untraced repetition and, for traced runs, a traced one.
func repeat(s *spawner, traced bool, chk *checker, reps, tracedReps *[]*repResult) error {
	r, err := s.spawn(false)
	if err != nil {
		return err
	}
	*reps = append(*reps, r)
	chk.add("rep", r)
	if traced {
		t, err := s.spawn(true)
		if err != nil {
			return err
		}
		*tracedReps = append(*tracedReps, t)
		chk.add("traced", t)
	}
	return nil
}

// run measures one workload and prints the record and the result line.
func run(name string, seed int64, d time.Duration, traced, rec bool) error {
	w, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want campaign, synthesize or drive)", name)
	}
	refs, err := loadRefs()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	// On SIGINT or SIGTERM the running child is killed and waited for.
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	var reps, tracedReps []*repResult
	refSeed := seed
	if w.fixedSeed != 0 {
		refSeed = w.fixedSeed
	}
	chk := newChecker(refs.lookup(w.refKey, refSeed))
	start := time.Now()
	s := newSpawner(ctx, name, seed)
	for i := 0; i == 0 || time.Since(start) < d || (!traced && i < minReps); i++ {
		if err := repeat(s, traced, chk, &reps, &tracedReps); err != nil {
			chk.crashed(err)
			break
		}
	}
	if ctx.Err() == context.Canceled {
		return errors.New("interrupted")
	}
	if len(reps) == 0 || (traced && len(tracedReps) == 0) {
		return fmt.Errorf("no repetition completed: %s", strings.Join(chk.problems, "; "))
	}

	out := record{Workload: name, Seed: seed, Trace: traced, Env: envStamp(), Reps: len(reps),
		Digest: reps[0].Digest, Counts: reps[0].Counts, Problems: chk.problems}
	units := map[string]string{}
	if traced {
		out.Metrics = layerMetrics(tracedReps, reps, hostSpeed(s.cals))
		for _, m := range perLayer {
			units[m.name] = m.unit
		}
	} else {
		out.Metrics = endToEnd(reps, hostSpeed(s.cals))
		for _, m := range endToEndMetrics {
			units[m.name] = m.unit
		}
	}
	if rec {
		if len(chk.problems) > 0 {
			return fmt.Errorf("not recording a reference from a run with problems: %s", strings.Join(chk.problems, "; "))
		}
		if err := refs.record(w.refKey, refSeed, reps[0]); err != nil {
			return err
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	res := result{Correct: len(chk.problems) == 0, Attempted: chk.attempted, Failed: chk.failed,
		Metrics: map[string]metricValue{}}
	for n, v := range out.Metrics {
		res.Metrics[n] = metricValue{Value: v, Unit: units[n]}
	}
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// compareFiles prints the metric ratios between two saved outputs of the
// same workload, refusing outputs measured on different machines or
// toolchains.
func compareFiles(paths []string) error {
	if len(paths) != 2 {
		return errors.New("-compare wants two files: OLD NEW")
	}
	var recs [2]record
	for i, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		found := false
		for _, l := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(l, `{"workload"`) {
				if err := json.Unmarshal([]byte(l), &recs[i]); err != nil {
					return fmt.Errorf("%s: %w", p, err)
				}
				found = true
			}
		}
		if !found {
			return fmt.Errorf("%s: no perfbench record line", p)
		}
	}
	if recs[0].Env != recs[1].Env {
		return fmt.Errorf("stamps differ, results are not comparable: %+v vs %+v", recs[0].Env, recs[1].Env)
	}
	if recs[0].Workload != recs[1].Workload || recs[0].Trace != recs[1].Trace {
		return fmt.Errorf("different workloads: %s (trace %v) vs %s (trace %v)",
			recs[0].Workload, recs[0].Trace, recs[1].Workload, recs[1].Trace)
	}
	for _, m := range append(append([]metric{}, endToEndMetrics...), perLayer...) {
		a, okA := recs[0].Metrics[m.name]
		b, okB := recs[1].Metrics[m.name]
		if !okA || !okB {
			continue
		}
		ratio := "-"
		if a != 0 {
			ratio = fmt.Sprintf("%.3fx", b/a)
		}
		fmt.Printf("%-36s %14.6g %14.6g %8s %s\n", m.name, a, b, ratio, m.unit)
	}
	return nil
}
