// Package gate is the one regression gate behind `clperf diff`,
// `cltrace model diff` and `cltrace diff`. A Record is a machine stamp
// plus named metrics, each carrying the direction in which a change is a
// regression. Records live in an append-only JSONL history; Diff gates the
// newest record against the median of earlier records from the same
// component on the same machine, and Compare gates a record against any
// baseline the caller picks (cltrace diff uses the older journal alone).
package gate

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"clgen/internal/telemetry"
)

// Dir is the direction of change that counts as a regression.
type Dir int

const (
	Ungated Dir = 0  // informational only, e.g. wall-clock latencies
	Up      Dir = 1  // an increase regresses: runtimes, failures
	Down    Dir = -1 // a decrease regresses: counts, rates, accuracy
)

// Metric is one named measurement in a record.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"v"`
	Bad   Dir     `json:"bad,omitempty"`
	// Unit selects formatting: "" for a count, "%" for a percentage, "x"
	// for a ratio, anything else ("s", "ms") for a duration. A percentage
	// changes in percentage points; every other metric in percent of its
	// baseline.
	Unit string `json:"unit,omitempty"`
}

// points reports whether the metric's change is measured in percentage
// points rather than percent of the baseline.
func (m Metric) points() bool { return m.Unit == "%" }

func (m Metric) format(v float64) string {
	switch m.Unit {
	case "":
		return fmt.Sprintf("%.0f", v)
	case "%":
		return fmt.Sprintf("%.1f%%", v)
	case "x":
		return fmt.Sprintf("%.2fx", v)
	default:
		return fmt.Sprintf("%.3f%s", v, m.Unit)
	}
}

// Record is one run: where and when it ran, and what it measured.
type Record struct {
	Time      time.Time         `json:"t"`
	Component string            `json:"component"`
	GitRev    string            `json:"git_rev,omitempty"`
	Env       telemetry.EnvInfo `json:"env"`
	Metrics   []Metric          `json:"metrics"`
}

// Append appends rec as one JSON line to the history at path, creating it
// if needed.
func Append(path string, rec Record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("gate: marshal record: %w", err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("gate: open history: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("gate: append history: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("gate: close history: %w", err)
	}
	return nil
}

// ReadHistory loads all records from the JSONL history at path, oldest
// first. Blank lines are skipped. A malformed line, or a record without
// metrics, is an error: the history is machine-written, and a metric-less
// record would form a baseline that gates nothing.
func ReadHistory(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("gate: open history: %w", err)
	}
	defer f.Close()
	var out []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rec Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, fmt.Errorf("gate: history %s line %d: %w", path, lineNo, err)
		}
		if len(rec.Metrics) == 0 {
			return nil, fmt.Errorf("gate: history %s line %d: record has no metrics", path, lineNo)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("gate: read history: %w", err)
	}
	return out, nil
}

// Tolerance is how far a metric may move in its bad direction before it
// regresses.
type Tolerance struct {
	Pct    float64 // percent of the baseline, for non-percentage metrics
	Points float64 // percentage points, for percentage metrics
	// Floor is the absolute change, in the metric's unit, that must also
	// be exceeded; it keeps short noisy stages from flapping the gate.
	Floor float64
}

// Row compares one metric of the gated record against its baseline.
type Row struct {
	Metric            // Value is the gated record's
	Base      float64 // median of the baseline samples
	Regressed bool
}

// Delta returns the signed change: percentage points for percentages,
// percent of Base otherwise (±Inf when Base is zero and Value is not).
func (r Row) Delta() float64 {
	switch {
	case r.points():
		return r.Value - r.Base
	case r.Base != 0:
		return (r.Value - r.Base) / r.Base * 100
	case r.Value == 0:
		return 0
	case r.Value < 0:
		return math.Inf(-1)
	}
	return math.Inf(1)
}

func (r Row) deltaText() string {
	if r.points() {
		return fmt.Sprintf("%+.1fpp", r.Delta())
	}
	return fmt.Sprintf("%+.1f%%", r.Delta())
}

// regressed applies the rule: the delta in the bad direction exceeds the
// tolerance, and the absolute change in that direction exceeds the floor.
func (t Tolerance) regressed(r Row) bool {
	limit := t.Pct
	if r.points() {
		limit = t.Points
	}
	bad := float64(r.Bad)
	return r.Bad != Ungated && bad*r.Delta() > limit && bad*(r.Value-r.Base) > t.Floor
}

// Report is the outcome of gating one record.
type Report struct {
	// Title heads the rendered table; callers set it.
	Title        string
	Component    string
	BaselineRuns int
	Rows         []Row
}

// Regressions returns the rows that tripped the gate.
func (r *Report) Regressions() []Row {
	var out []Row
	for _, row := range r.Rows {
		if row.Regressed {
			out = append(out, row)
		}
	}
	return out
}

// OK reports whether the gated record passed.
func (r *Report) OK() bool { return len(r.Regressions()) == 0 }

// Diff gates the newest record in history against the median of earlier
// records with the same component and the same machine stamp; records
// from another machine never form a baseline.
func Diff(history []Record, tol Tolerance) (*Report, error) {
	if len(history) == 0 {
		return nil, errors.New("gate: history is empty")
	}
	cur := history[len(history)-1]
	var base []Record
	for _, r := range history[:len(history)-1] {
		if r.Component == cur.Component && r.Env == cur.Env {
			base = append(base, r)
		}
	}
	return Compare(base, cur, tol), nil
}

// Compare gates cur against base, one row per metric of cur in its
// order. A metric no baseline record carries is skipped: there is
// nothing to regress against.
func Compare(base []Record, cur Record, tol Tolerance) *Report {
	rep := &Report{Component: cur.Component, BaselineRuns: len(base)}
	for _, m := range cur.Metrics {
		var samples []float64
		for _, r := range base {
			for _, b := range r.Metrics {
				if b.Name == m.Name {
					samples = append(samples, b.Value)
				}
			}
		}
		if len(samples) == 0 {
			continue
		}
		row := Row{Metric: m, Base: median(samples)}
		row.Regressed = tol.regressed(row)
		rep.Rows = append(rep.Rows, row)
	}
	return rep
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Render writes the title, one row per compared metric ('!' marks a
// regression), and the verdict with each regression spelled out.
func (r *Report) Render(w io.Writer) {
	if r.BaselineRuns == 0 {
		fmt.Fprintf(w, "no comparable baseline for component %q on this machine — nothing to gate\n", r.Component)
		return
	}
	fmt.Fprintln(w, r.Title)
	width := 26
	for _, row := range r.Rows {
		width = max(width, len(row.Name))
	}
	fmt.Fprintf(w, "%-*s %12s %12s %10s\n", width+2, "metric", "old", "new", "delta")
	for _, row := range r.Rows {
		mark, delta := " ", row.deltaText()
		if row.Regressed {
			mark = "!"
		}
		if row.Delta() == 0 {
			delta = "="
		}
		fmt.Fprintf(w, "%s %-*s %12s %12s %10s\n",
			mark, width, row.Name, row.format(row.Base), row.format(row.Value), delta)
	}
	bad := r.Regressions()
	if len(bad) == 0 {
		fmt.Fprintln(w, "no regressions")
		return
	}
	fmt.Fprintf(w, "%d regression(s):\n", len(bad))
	for _, row := range bad {
		fmt.Fprintf(w, "  ! %s: %s -> %s (%s)\n",
			row.Name, row.format(row.Base), row.format(row.Value), row.deltaText())
	}
}

// RenderHistory writes one row per record: time, component, revision and
// each metric's value. A non-empty only keeps just the metric of that name.
func RenderHistory(w io.Writer, history []Record, only string) {
	if len(history) == 0 {
		fmt.Fprintln(w, "history is empty")
		return
	}
	fmt.Fprintf(w, "%-20s %-10s %-10s %s\n", "TIME", "COMPONENT", "REV", "METRICS")
	for _, r := range history {
		var cells []string
		for _, m := range r.Metrics {
			if only == "" || m.Name == only {
				cells = append(cells, m.Name+"="+m.format(m.Value))
			}
		}
		rev := r.GitRev
		if rev == "" {
			rev = "-"
		}
		fmt.Fprintf(w, "%-20s %-10s %-10s %s\n",
			r.Time.UTC().Format("2006-01-02 15:04:05"), r.Component, rev, strings.Join(cells, "  "))
	}
}
