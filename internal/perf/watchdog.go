package perf

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"clgen/internal/telemetry"
)

// WatchdogConfig configures the stall watchdog.
type WatchdogConfig struct {
	// Component names the process in the dump header (e.g. "clgen").
	Component string
	// Deadline is how long the pipeline may go without progress (no
	// pool-item completion, no artifact finishing) while work is in
	// flight before the watchdog dumps. Required.
	Deadline time.Duration
	// Interval is the heartbeat period. 0 means Deadline/4 clamped to
	// [25ms, 1s].
	Interval time.Duration
	// DumpPath receives the crash report ("" = <component>.stall.txt).
	DumpPath string
	// RingSize caps the flight recorder (0 = DefaultRingSize).
	RingSize int
}

// Watchdog watches pipeline progress and writes a flight-recorder dump —
// goroutine stacks, recent events, per-stage last-advance ages, and the
// in-flight artifact IDs — when progress stops past the deadline or on
// SIGQUIT. One dump per stall: the trigger re-arms only after progress
// resumes.
type Watchdog struct {
	cfg  WatchdogConfig
	ring *recorder
	busy *telemetry.Gauge

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
	sigStop  func()

	mu     sync.Mutex
	dumped bool // current stall already reported
}

// StartWatchdog arms the watchdog: it enables telemetry progress
// tracking, taps log/span/journal events into the flight recorder, hooks
// SIGQUIT, and starts the heartbeat loop.
func StartWatchdog(cfg WatchdogConfig) *Watchdog {
	if cfg.Interval <= 0 {
		cfg.Interval = cfg.Deadline / 4
		if cfg.Interval < 25*time.Millisecond {
			cfg.Interval = 25 * time.Millisecond
		}
		if cfg.Interval > time.Second {
			cfg.Interval = time.Second
		}
	}
	if cfg.DumpPath == "" {
		name := cfg.Component
		if name == "" {
			name = "pipeline"
		}
		cfg.DumpPath = name + ".stall.txt"
	}
	w := &Watchdog{
		cfg:  cfg,
		ring: newRecorder(cfg.RingSize),
		busy: telemetry.Default().Gauge("pipeline_workers_busy",
			"Worker goroutines currently executing a task."),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	telemetry.EnableProgressTracking(true)
	telemetry.SetTap(w.ring.Record)
	w.sigStop = notifySignals(w)
	go w.loop()
	telemetry.Info("stall watchdog armed",
		"deadline", cfg.Deadline, "interval", cfg.Interval, "dump", cfg.DumpPath)
	return w
}

// Stop disarms the watchdog and tears down its taps.
func (w *Watchdog) Stop() {
	w.stopOnce.Do(func() {
		close(w.stop)
		<-w.done
		if w.sigStop != nil {
			w.sigStop()
		}
		telemetry.SetTap(nil)
		telemetry.EnableProgressTracking(false)
	})
}

func (w *Watchdog) loop() {
	defer close(w.done)
	tick := time.NewTicker(w.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-tick.C:
			w.check(time.Now())
		}
	}
}

// check records a heartbeat and dumps if the stall predicate holds:
// progress has happened at least once, nothing has advanced for longer
// than the deadline, and work is demonstrably in flight (registered
// artifacts or busy workers) — an idle pipeline between stages is not a
// stall.
func (w *Watchdog) check(now time.Time) {
	snap := telemetry.Progress()
	busy := w.busy.Value()
	inflight := snap.InFlightCount()
	age := time.Duration(0)
	if !snap.Last.IsZero() {
		age = now.Sub(snap.Last)
	}
	w.ring.Record("heartbeat",
		fmt.Sprintf("busy=%g inflight=%d last_advance_age=%s", busy, inflight, age.Round(time.Millisecond)))

	stalled := !snap.Last.IsZero() && age > w.cfg.Deadline && (inflight > 0 || busy > 0)
	w.mu.Lock()
	shouldDump := stalled && !w.dumped
	w.dumped = stalled // re-arms once progress resumes
	w.mu.Unlock()
	if shouldDump {
		w.DumpNow(fmt.Sprintf("no progress for %s (deadline %s)",
			age.Round(time.Millisecond), w.cfg.Deadline))
	}
}

// DumpNow writes the flight-recorder crash report to the configured path
// unconditionally (the SIGQUIT handler and tests call it directly).
func (w *Watchdog) DumpNow(reason string) {
	snap := telemetry.Progress()
	var b strings.Builder
	fmt.Fprintf(&b, "==== stall dump: %s ====\n", w.cfg.Component)
	fmt.Fprintf(&b, "time: %s\n", time.Now().UTC().Format(time.RFC3339Nano))
	fmt.Fprintf(&b, "reason: %s\n", reason)
	fmt.Fprintf(&b, "workers busy: %g\n", w.busy.Value())

	fmt.Fprintf(&b, "\n-- last advance per stage --\n")
	stages := make([]string, 0, len(snap.LastAdvance))
	for s := range snap.LastAdvance {
		stages = append(stages, s)
	}
	sort.Strings(stages)
	for _, s := range stages {
		fmt.Fprintf(&b, "  %-28s %s ago\n", s,
			time.Since(snap.LastAdvance[s]).Round(time.Millisecond))
	}
	if len(stages) == 0 {
		fmt.Fprintf(&b, "  (no progress recorded)\n")
	}

	fmt.Fprintf(&b, "\n-- in-flight artifacts --\n")
	inStages := make([]string, 0, len(snap.InFlight))
	for s := range snap.InFlight {
		inStages = append(inStages, s)
	}
	sort.Strings(inStages)
	for _, s := range inStages {
		fmt.Fprintf(&b, "  %s: %s\n", s, strings.Join(snap.InFlight[s], ", "))
	}
	if len(inStages) == 0 {
		fmt.Fprintf(&b, "  (none registered)\n")
	}

	fmt.Fprintf(&b, "\n-- flight recorder (oldest first) --\n")
	for _, e := range w.ring.Events() {
		fmt.Fprintf(&b, "  %s\n", e)
	}

	fmt.Fprintf(&b, "\n-- goroutine stacks --\n")
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	b.Write(buf[:n])
	b.WriteByte('\n')

	if err := writeFileAtomic(w.cfg.DumpPath, []byte(b.String())); err != nil {
		telemetry.Error("stall dump write failed", "path", w.cfg.DumpPath, "err", err)
		return
	}
	telemetry.Error("pipeline stalled — flight recorder dumped",
		"reason", reason, "path", w.cfg.DumpPath)
}

// writeFileAtomic writes data to a temporary file beside path and renames
// it into place, so a reader sees either no dump or a whole one.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Chmod(tmp.Name(), 0o644)
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}
