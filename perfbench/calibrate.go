package main

import (
	"math/rand"
	"sort"
	"time"
)

// The benchmark's hosts share their physical cores and memory with other
// tenants. On the 2-CPU host where it was built, the same fixed work took
// up to twice its usual CPU time for minutes at a stretch while a
// neighbour was busy; steal time stayed near zero throughout. No run is
// long enough to average that out. So between repetitions the parent
// process measures the host's speed with a fixed piece of work that does
// not depend on the program under test, and every time metric is reported
// at the reference speed: the measured seconds times the host's speed.
// README.md gives the measurements behind this.

// calRoundRefS is the CPU seconds of one calibration round on a host
// running at its reference speed: about the fastest rounds measured on the
// 2-CPU host the benchmark was built on.
const calRoundRefS = 0.003

// calShare is the share of a repetition's wall time spent on the
// calibration after it, from calMin to calMax. The host's speed changes
// from one second to the next, so a calibration much shorter than the
// repetition would not see the speed the repetition saw.
const (
	calShare = 0.25
	calMin   = 500 * time.Millisecond
	calMax   = 3 * time.Second
)

// calibrator holds the calibration's working set: a table larger than a
// CPU's caches, so that a round sees the memory contention a repetition
// sees, and an array to sort.
type calibrator struct {
	r     *rand.Rand
	table []int64
	xs    []int
	sink  int64
}

func newCalibrator() *calibrator {
	c := &calibrator{r: rand.New(rand.NewSource(1)), table: make([]int64, 4<<20), xs: make([]int, 20000)}
	for i := range c.table {
		c.table[i] = int64(i)
	}
	return c
}

// round sorts random integers and reads random entries of the table: a
// fixed mix of branches, cache-resident work and memory accesses.
func (c *calibrator) round() {
	for i := range c.xs {
		c.xs[i] = c.r.Int()
	}
	sort.Ints(c.xs)
	x := uint64(c.xs[0])
	for i := 0; i < 100000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		c.sink += c.table[(x>>32)%uint64(len(c.table))]
	}
}

// measure runs rounds for about d on the calling goroutine, as a
// repetition runs its work on one, and returns the CPU seconds per round.
func (c *calibrator) measure(d time.Duration) float64 {
	rounds := 0
	start, cpu := time.Now(), cpuSeconds()
	for rounds == 0 || time.Since(start) < d {
		c.round()
		rounds++
	}
	return (cpuSeconds() - cpu) / float64(rounds)
}

// hostSpeed is the host's speed relative to the reference over a run,
// from the CPU seconds per round of its calibrations: 0.5 while a round
// takes twice its reference CPU time. The median of a run's calibrations
// is steadier than each one, and the host's slow phases last minutes,
// longer than a run.
func hostSpeed(cals []float64) float64 {
	return calRoundRefS / median(cals)
}
