package interp_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"clgen/internal/driver"
	"clgen/internal/interp"
	"clgen/internal/suites"
)

// fuzzSteps keeps each fuzzed launch short.
const fuzzSteps = 1 << 14

// interpTestKernels returns the kernel sources written as string literals
// in interp_test.go.
func interpTestKernels(tb testing.TB) []string {
	file, err := parser.ParseFile(token.NewFileSet(), "interp_test.go", nil, 0)
	if err != nil {
		tb.Fatal(err)
	}
	var srcs []string
	ast.Inspect(file, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if s, err := strconv.Unquote(lit.Value); err == nil && strings.Contains(s, "__kernel") {
				srcs = append(srcs, s)
			}
		}
		return true
	})
	return srcs
}

// fuzzOutcome is everything one launch determines.
type fuzzOutcome struct {
	err     string
	profile interp.Profile
	args    []interp.Value
}

func fuzzLaunch(k *driver.Kernel, size int) (fuzzOutcome, bool) {
	p, err := driver.GeneratePayload(k, size, rand.New(rand.NewSource(int64(size))))
	if err != nil {
		return fuzzOutcome{}, false
	}
	var o fuzzOutcome
	prof, err := k.Run(p, driver.RunConfig{MaxSteps: fuzzSteps})
	if prof != nil {
		o.profile = *prof
	}
	if err != nil {
		o.err = err.Error()
	}
	o.args = p.Args
	return o, true
}

// FuzzInterp drives arbitrary kernel sources through the host driver's
// §5.1 payloads. Whatever loads must run without panicking, and two runs
// of the same payload must agree exactly on the profile, the error and
// every buffer.
func FuzzInterp(f *testing.F) {
	for _, b := range suites.All() {
		f.Add(b.Src)
	}
	for _, src := range interpTestKernels(f) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		k, err := driver.Load(src)
		if err != nil {
			return
		}
		for _, size := range []int{4, 16} {
			a, ok := fuzzLaunch(k, size)
			if !ok {
				return
			}
			b, _ := fuzzLaunch(k, size)
			if a.err != b.err || a.profile != b.profile {
				t.Fatalf("size %d: runs disagree:\n%q %+v\n%q %+v", size, a.err, a.profile, b.err, b.profile)
			}
			for i := range a.args {
				if !a.args[i].IsPointer() {
					continue
				}
				ab, bb := a.args[i].Ptr.Buf, b.args[i].Ptr.Buf
				if ab.MaxSlot != bb.MaxSlot || !reflect.DeepEqual(ab.I, bb.I) || !floatsIdentical(ab.F, bb.F) {
					t.Fatalf("size %d: runs disagree on argument %d", size, i)
				}
			}
		}
	})
}

// floatsIdentical compares bit patterns, so NaNs compare equal to
// themselves.
func floatsIdentical(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
