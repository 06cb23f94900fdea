package interp_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"clgen/internal/clc"
	"clgen/internal/driver"
	"clgen/internal/interp"
	"clgen/internal/suites"
)

var updateGolden = flag.Bool("update", false, "re-record testdata/golden_profiles.json")

const goldenPath = "testdata/golden_profiles.json"

// Golden-run parameters. Suite datasets run at goldenCap work-items or
// fewer, once with the default step budget and once with
// goldenSuiteTightSteps. Corpus kernels run at each of goldenSizes under
// two budgets: goldenSteps, which they finish within unless they fault,
// and goldenTightSteps. The tight budgets stop many launches midway, so
// their partial profiles pin where every step is charged.
const (
	goldenCap             = 64
	goldenSeed            = 11
	goldenSteps           = 1 << 16
	goldenTightSteps      = 400
	goldenSuiteTightSteps = 5000
)

var goldenSizes = []int{4, 16}

// goldenFile is the recorded interpreter behaviour. Corpus holds the
// kernel sources: 50 accepted kernels of a seed-5 corpus (80 mined
// repositories), chosen to cover completing, faulting, barrier and
// vector kernels. Runs holds one entry per launch, in a fixed order.
type goldenFile struct {
	Corpus []string    `json:"corpus"`
	Runs   []goldenRun `json:"runs"`
}

type goldenRun struct {
	Name      string           `json:"name"`
	Err       string           `json:"err,omitempty"`
	StepLimit bool             `json:"step_limit,omitempty"`
	Fault     *interp.MemFault `json:"fault,omitempty"`
	Profile   interp.Profile   `json:"profile"`
	// MaxSlot maps each buffer argument's index to its Buffer.MaxSlot.
	MaxSlot map[string]int64 `json:"max_slot"`
	// Digest hashes every buffer argument's contents after the launch.
	Digest string `json:"digest"`
}

func record(name string, args []interp.Value, prof *interp.Profile, err error) goldenRun {
	r := goldenRun{Name: name, MaxSlot: map[string]int64{}}
	if prof != nil {
		r.Profile = *prof
	}
	if err != nil {
		r.Err = err.Error()
		r.StepLimit = errors.Is(err, interp.ErrStepLimit)
		var mf *interp.MemFault
		if errors.As(err, &mf) {
			f := *mf
			r.Fault = &f
		}
	}
	h := sha256.New()
	var word [8]byte
	for i, a := range args {
		if !a.IsPointer() {
			continue
		}
		b := a.Ptr.Buf
		r.MaxSlot[strconv.Itoa(i)] = b.MaxSlot
		for _, f := range b.F {
			binary.LittleEndian.PutUint64(word[:], math.Float64bits(f))
			h.Write(word[:])
		}
		for _, v := range b.I {
			binary.LittleEndian.PutUint64(word[:], uint64(v))
			h.Write(word[:])
		}
	}
	r.Digest = hex.EncodeToString(h.Sum(nil))[:16]
	return r
}

// suiteRuns launches every dataset of every benchmark suite at a capped
// size, building arguments the way suites.Measure does.
func suiteRuns(t *testing.T) []goldenRun {
	var runs []goldenRun
	for _, b := range suites.All() {
		k, err := b.Load()
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range suiteLaunches(b) {
			ds, steps := run.ds, run.steps
			launch := b.Plan(min(ds.N, goldenCap))
			if launch.LocalSize <= 0 {
				launch.LocalSize = 64
			}
			launch.LocalSize = min(launch.LocalSize, launch.GlobalSize)
			for launch.GlobalSize%launch.LocalSize != 0 {
				launch.LocalSize--
			}
			rng := rand.New(rand.NewSource(goldenSeed))
			args := make([]interp.Value, len(launch.Args))
			for i, a := range launch.Args {
				switch pt := k.Decl.Params[i].Type.(type) {
				case *clc.ScalarType:
					if a.Kind == suites.FloatScalar {
						args[i] = interp.FloatValue(pt.Kind, a.Float)
					} else {
						args[i] = interp.IntValue(pt.Kind, a.Int)
					}
				case *clc.PointerType:
					kind, lanes := pointee(pt.Elem)
					space := pt.Space
					if a.Kind == suites.LocalBuf {
						space = clc.Local
					}
					buf := interp.NewBuffer(kind, max(a.Slots, 1)*lanes, space)
					if a.Kind == suites.GlobalBuf {
						for j := range buf.F {
							buf.F[j] = rng.Float64()*2 - 1
						}
						for j := range buf.I {
							buf.I[j] = int64(rng.Intn(1 << 16))
						}
					}
					args[i] = interp.PtrValue(&interp.Pointer{Buf: buf, Elem: pt.Elem})
				default:
					t.Fatalf("%s: unexpected parameter type %s", b.ID(), pt)
				}
			}
			prof, err := k.Env.Run(k.Name, args, interp.RunConfig{
				GlobalSize: [3]int{launch.GlobalSize, 1, 1},
				LocalSize:  [3]int{launch.LocalSize, 1, 1},
				MaxSteps:   steps,
			})
			runs = append(runs, record(fmt.Sprintf("%s/%s/%d", b.ID(), ds.Name, steps), args, prof, err))
		}
	}
	return runs
}

type suiteLaunch struct {
	ds    suites.Dataset
	steps int64
}

func suiteLaunches(b *suites.Benchmark) []suiteLaunch {
	var out []suiteLaunch
	for _, ds := range b.Datasets {
		out = append(out, suiteLaunch{ds, 0}, suiteLaunch{ds, goldenSuiteTightSteps})
	}
	return out
}

func pointee(t clc.Type) (clc.ScalarKind, int) {
	switch x := t.(type) {
	case *clc.ScalarType:
		return x.Kind, 1
	case *clc.VectorType:
		return x.Elem, x.Len
	}
	return clc.Float, 1
}

// corpusRuns launches each corpus kernel through the host driver's §5.1
// payload rules at every golden size and budget.
func corpusRuns(t *testing.T, srcs []string) []goldenRun {
	var runs []goldenRun
	for i, src := range srcs {
		k, err := driver.Load(src)
		if err != nil {
			t.Fatalf("corpus kernel %d: %v", i, err)
		}
		for _, size := range goldenSizes {
			for _, steps := range []int64{goldenSteps, goldenTightSteps} {
				p, err := driver.GeneratePayload(k, size, rand.New(rand.NewSource(goldenSeed+int64(i))))
				if err != nil {
					t.Fatalf("corpus kernel %d: %v", i, err)
				}
				prof, err := k.Run(p, driver.RunConfig{MaxSteps: steps})
				runs = append(runs, record(fmt.Sprintf("corpus-%02d@%d/%d", i, size, steps), p.Args, prof, err))
			}
		}
	}
	return runs
}

// encodeGolden writes g as JSON with one corpus source or run per line,
// so a behaviour change shows up as a diff of the runs it touches.
func encodeGolden(t *testing.T, g goldenFile) []byte {
	var b, line bytes.Buffer
	enc := json.NewEncoder(&line)
	enc.SetEscapeHTML(false)
	list := func(name string, n int, item func(i int) any) {
		fmt.Fprintf(&b, "%q: [\n", name)
		for i := 0; i < n; i++ {
			line.Reset()
			if err := enc.Encode(item(i)); err != nil {
				t.Fatal(err)
			}
			b.Write(bytes.TrimSuffix(line.Bytes(), []byte("\n")))
			if i < n-1 {
				b.WriteByte(',')
			}
			b.WriteByte('\n')
		}
		b.WriteString("]")
	}
	b.WriteString("{\n")
	list("corpus", len(g.Corpus), func(i int) any { return g.Corpus[i] })
	b.WriteString(",\n")
	list("runs", len(g.Runs), func(i int) any { return g.Runs[i] })
	b.WriteString("\n}\n")
	return b.Bytes()
}

// TestGoldenProfiles checks that the interpreter reproduces the recorded
// outcome of every golden launch exactly: error, profile (step count
// included), per-buffer MaxSlot and output contents. Run with -update to
// re-record after an intended behaviour change.
func TestGoldenProfiles(t *testing.T) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want goldenFile
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got := goldenFile{Corpus: want.Corpus}
	got.Runs = append(suiteRuns(t), corpusRuns(t, want.Corpus)...)
	out := encodeGolden(t, got)
	if *updateGolden {
		if err := os.WriteFile(goldenPath, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if bytes.Equal(out, raw) {
		return
	}
	if len(got.Runs) != len(want.Runs) {
		t.Fatalf("%d golden runs, recorded %d", len(got.Runs), len(want.Runs))
	}
	bad := 0
	for i := range got.Runs {
		g, _ := json.Marshal(got.Runs[i])
		w, _ := json.Marshal(want.Runs[i])
		if !bytes.Equal(g, w) {
			t.Errorf("run %s:\n got %s\nwant %s", want.Runs[i].Name, g, w)
			if bad++; bad == 10 {
				t.Fatal("too many mismatches")
			}
		}
	}
	if bad == 0 {
		t.Fatal("golden file differs in formatting; re-record with -update")
	}
}
