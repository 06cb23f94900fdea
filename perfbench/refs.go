package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
)

// refsDir holds the reference outputs, one JSON file per reference key,
// mapping a seed to its expected output.
var refsDir = filepath.Join("perfbench", "refs")

type reference struct {
	Digest string `json:"digest"`
	// Ops holds opHashLen hex digits of the SHA-256 of each operation's
	// outcome, in order, for workloads checked per operation.
	Ops string `json:"ops,omitempty"`
}

// opHashLen keeps per-operation references small; two different outcomes
// share a prefix with probability 2^-16.
const opHashLen = 4

func opHashes(outcomes []string) string {
	var b strings.Builder
	for _, o := range outcomes {
		b.WriteString(digest(o)[:opHashLen])
	}
	return b.String()
}

type refs map[string]map[string]reference

func loadRefs() (refs, error) {
	rs := refs{}
	for _, key := range []string{"campaign", "synthesize", "drive"} {
		raw, err := os.ReadFile(filepath.Join(refsDir, key+".json"))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		m := map[string]reference{}
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil, fmt.Errorf("%s.json: %w", key, err)
		}
		rs[key] = m
	}
	return rs, nil
}

func (rs refs) lookup(key string, seed int64) *reference {
	r, ok := rs[key][strconv.FormatInt(seed, 10)]
	if !ok {
		return nil
	}
	return &r
}

// record stores r as the reference output of (key, seed).
func (rs refs) record(key string, seed int64, r *repResult) error {
	if rs[key] == nil {
		rs[key] = map[string]reference{}
	}
	rs[key][strconv.FormatInt(seed, 10)] = reference{Digest: r.Digest, Ops: opHashes(r.Outcomes)}
	raw, err := json.MarshalIndent(rs[key], "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(refsDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(refsDir, key+".json"), append(raw, '\n'), 0o644)
}

func digest(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checker checks every repetition of a run against the reference of its
// seed, or, for a seed without one, against the run's first repetition.
// Every repetition of a seed must give the same output, traced or not.
// Exact counts must repeat among repetitions of the same role.
type checker struct {
	ref               *reference
	counts            map[string]map[string]int64
	attempted, failed int
	problems          []string
}

func newChecker(ref *reference) *checker {
	return &checker{ref: ref, counts: map[string]map[string]int64{}}
}

func (c *checker) problem(format string, args ...any) {
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

// add checks one result.
func (c *checker) add(role string, r *repResult) {
	ops := opHashes(r.Outcomes)
	if c.ref == nil {
		c.ref = &reference{Digest: r.Digest, Ops: ops}
	}
	failed := 0
	switch {
	case c.ref.Ops != "":
		if len(ops) != len(c.ref.Ops) {
			failed = r.Ops
			c.problem("%s: %d outcomes, want %d", role, len(ops)/opHashLen, len(c.ref.Ops)/opHashLen)
			break
		}
		for i := 0; i < len(ops); i += opHashLen {
			if ops[i:i+opHashLen] != c.ref.Ops[i:i+opHashLen] {
				if failed == 0 {
					c.problem("%s: operation %d gave %q, which differs from the reference", role, i/opHashLen, r.Outcomes[i/opHashLen])
				}
				failed++
			}
		}
	case r.Digest != c.ref.Digest:
		failed = r.Ops
		c.problem("%s: output digest %.12s, want %.12s", role, r.Digest, c.ref.Digest)
	}
	if prev, ok := c.counts[role]; !ok {
		c.counts[role] = r.Counts
	} else if !reflect.DeepEqual(prev, r.Counts) {
		c.problem("%s: exact counts differ between repetitions: %s", role, countsDiff(prev, r.Counts))
	}
	c.attempted += r.Ops
	c.failed += failed
}

// crashed records a repetition that ended without a result.
func (c *checker) crashed(err error) {
	c.attempted++
	c.failed++
	c.problem("%v", err)
}

func countsDiff(a, b map[string]int64) string {
	var d []string
	for k, v := range a {
		if b[k] != v {
			d = append(d, fmt.Sprintf("%s %d vs %d", k, v, b[k]))
		}
	}
	for k, v := range b {
		if _, ok := a[k]; !ok {
			d = append(d, fmt.Sprintf("%s missing vs %d", k, v))
		}
	}
	return strings.Join(d, ", ")
}
