package ml

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestTreeLearnsAxisSplit(t *testing.T) {
	var X [][]float64
	var y []int
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		x := []float64{rng.Float64() * 10, rng.Float64() * 10}
		label := 0
		if x[0] > 5 {
			label = 1
		}
		X = append(X, x)
		y = append(y, label)
	}
	tree, err := TrainTree(X, y, TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if acc := tree.Accuracy(X, y); acc < 0.99 {
		t.Errorf("train accuracy %g", acc)
	}
	if tree.Predict([]float64{9, 1}) != 1 || tree.Predict([]float64{1, 9}) != 0 {
		t.Error("misclassifies obvious points")
	}
}

func TestTreeLearnsXOR(t *testing.T) {
	// XOR needs depth >= 2: no single split separates it.
	var X [][]float64
	var y []int
	for i := 0; i < 40; i++ {
		a, b := float64(i%2), float64((i/2)%2)
		X = append(X, []float64{a + 0.01*float64(i%3), b})
		y = append(y, int(a)^int(b))
	}
	tree, err := TrainTree(X, y, TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if acc := tree.Accuracy(X, y); acc < 0.99 {
		t.Errorf("XOR accuracy %g", acc)
	}
	if tree.Depth() < 2 {
		t.Errorf("depth %d too shallow for XOR", tree.Depth())
	}
}

func TestTreeDepthLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var X [][]float64
	var y []int
	for i := 0; i < 300; i++ {
		X = append(X, []float64{rng.Float64(), rng.Float64(), rng.Float64()})
		y = append(y, rng.Intn(2)) // pure noise: tree wants to overfit
	}
	tree, err := TrainTree(X, y, TreeConfig{MaxDepth: 3})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Depth() > 3 {
		t.Errorf("depth %d exceeds limit", tree.Depth())
	}
}

func TestTreeValidation(t *testing.T) {
	if _, err := TrainTree(nil, nil, TreeConfig{}); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := TrainTree([][]float64{{1}}, []int{0, 1}, TreeConfig{}); err == nil {
		t.Error("mismatched labels accepted")
	}
	if _, err := TrainTree([][]float64{{1}, {1, 2}}, []int{0, 1}, TreeConfig{}); err == nil {
		t.Error("ragged input accepted")
	}
}

func TestTreeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var X [][]float64
	var y []int
	for i := 0; i < 100; i++ {
		X = append(X, []float64{rng.Float64(), rng.Float64()})
		y = append(y, rng.Intn(3))
	}
	t1, _ := TrainTree(X, y, TreeConfig{})
	t2, _ := TrainTree(X, y, TreeConfig{})
	for i := 0; i < 50; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		if t1.Predict(x) != t2.Predict(x) {
			t.Fatal("training not deterministic")
		}
	}
}

func TestTreePredictsMajorityOnUnsplittable(t *testing.T) {
	// Identical features, conflicting labels: must fall back to majority.
	X := [][]float64{{1, 1}, {1, 1}, {1, 1}}
	y := []int{1, 1, 0}
	tree, err := TrainTree(X, y, TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Predict([]float64{1, 1}); got != 1 {
		t.Errorf("majority = %d", got)
	}
}

func TestPCARecoversDominantDirection(t *testing.T) {
	// Points along the diagonal y=x with small noise: PC1 ≈ (1,1)/√2 in
	// standardized space.
	rng := rand.New(rand.NewSource(5))
	var X [][]float64
	for i := 0; i < 200; i++ {
		v := rng.NormFloat64()
		X = append(X, []float64{v + 0.01*rng.NormFloat64(), v + 0.01*rng.NormFloat64()})
	}
	m, err := PCA(X, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := m.Components[0]
	if math.Abs(math.Abs(c[0])-math.Abs(c[1])) > 0.05 {
		t.Errorf("PC1 = %v, want diagonal", c)
	}
	if m.Explained[0] < 0.95 {
		t.Errorf("PC1 explains only %g", m.Explained[0])
	}
}

func TestPCATransformDimensions(t *testing.T) {
	X := [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 10}, {0, 1, 0}}
	m, err := PCA(X, 2)
	if err != nil {
		t.Fatal(err)
	}
	out := m.TransformAll(X)
	if len(out) != 4 || len(out[0]) != 2 {
		t.Fatalf("projection shape %dx%d", len(out), len(out[0]))
	}
}

func TestPCAOrthonormalComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var X [][]float64
	for i := 0; i < 100; i++ {
		X = append(X, []float64{rng.NormFloat64(), 2 * rng.NormFloat64(), rng.NormFloat64() - 1, 0.5 * rng.NormFloat64()})
	}
	m, err := PCA(X, 4)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 4; a++ {
		for b := a; b < 4; b++ {
			var dot float64
			for j := 0; j < 4; j++ {
				dot += m.Components[a][j] * m.Components[b][j]
			}
			want := 0.0
			if a == b {
				want = 1
			}
			if math.Abs(dot-want) > 1e-6 {
				t.Errorf("components %d·%d = %g, want %g", a, b, dot, want)
			}
		}
	}
}

func TestPCAConstantFeatureSafe(t *testing.T) {
	X := [][]float64{{1, 5}, {2, 5}, {3, 5}}
	m, err := PCA(X, 1)
	if err != nil {
		t.Fatal(err)
	}
	out := m.Transform([]float64{2, 5})
	if math.IsNaN(out[0]) || math.IsInf(out[0], 0) {
		t.Errorf("projection of constant feature = %v", out)
	}
}

func TestPCAValidation(t *testing.T) {
	if _, err := PCA([][]float64{{1}}, 1); err == nil {
		t.Error("single sample accepted")
	}
	if _, err := PCA([][]float64{{1, 2}, {3, 4}}, 5); err == nil {
		t.Error("too many components accepted")
	}
}

func TestTreePredictTotal(t *testing.T) {
	// Property: prediction always returns a label that was in training.
	rng := rand.New(rand.NewSource(12))
	var X [][]float64
	var y []int
	for i := 0; i < 60; i++ {
		X = append(X, []float64{rng.Float64() * 100, rng.Float64()})
		y = append(y, rng.Intn(2))
	}
	tree, err := TrainTree(X, y, TreeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	err = quick.Check(func(a, b float64) bool {
		p := tree.Predict([]float64{a, b})
		return p == 0 || p == 1
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

// bruteSplit is the exhaustive splitter the sweep replaced, kept as its
// reference: every candidate threshold re-partitions every sample. Gini
// terms are summed in ascending label order, as bestSplit sums them.
func bruteSplit(X [][]float64, y []int, idx []int) (feat int, thr float64, ok bool) {
	bestGini := 2.0
	width := len(X[idx[0]])
	vals := make([]float64, 0, len(idx))
	for f := 0; f < width; f++ {
		vals = vals[:0]
		for _, i := range idx {
			vals = append(vals, X[i][f])
		}
		sort.Float64s(vals)
		for v := 1; v < len(vals); v++ {
			if vals[v] == vals[v-1] {
				continue
			}
			t := (vals[v] + vals[v-1]) / 2
			if g := bruteGini(X, y, idx, f, t); g < bestGini-1e-12 {
				bestGini, feat, thr, ok = g, f, t, true
			}
		}
	}
	return feat, thr, ok
}

func bruteGini(X [][]float64, y []int, idx []int, f int, t float64) float64 {
	lc, rc := map[int]int{}, map[int]int{}
	ln, rn := 0, 0
	for _, i := range idx {
		if X[i][f] <= t {
			lc[y[i]]++
			ln++
		} else {
			rc[y[i]]++
			rn++
		}
	}
	gini := func(c map[int]int, n int) float64 {
		if n == 0 {
			return 0
		}
		labels := make([]int, 0, len(c))
		for l := range c {
			labels = append(labels, l)
		}
		sort.Ints(labels)
		g := 1.0
		for _, l := range labels {
			p := float64(c[l]) / float64(n)
			g -= p * p
		}
		return g
	}
	n := float64(ln + rn)
	return float64(ln)/n*gini(lc, ln) + float64(rn)/n*gini(rc, rn)
}

// TestBestSplitMatchesBruteForce checks the sorted sweep picks the same
// feature and threshold as the exhaustive splitter, on data with ties,
// few distinct values, adjacent floats (whose midpoint rounds up), signed
// infinities, NaNs and several labels.
func TestBestSplitMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 1, math.Nextafter(1, 2), 0, math.Copysign(0, -1), -0.5}
	value := func(kind int) float64 {
		switch kind {
		case 0:
			return rng.Float64()
		case 1:
			return float64(rng.Intn(4))
		default:
			return specials[rng.Intn(len(specials))]
		}
	}
	for trial := 0; trial < 2000; trial++ {
		n, width, nlab := 1+rng.Intn(40), 1+rng.Intn(4), 1+rng.Intn(4)
		kinds := make([]int, width)
		for f := range kinds {
			kinds[f] = rng.Intn(3)
		}
		X := make([][]float64, n)
		y := make([]int, n)
		for i := range X {
			X[i] = make([]float64, width)
			for f := range X[i] {
				X[i][f] = value(kinds[f])
			}
			y[i] = 3*rng.Intn(nlab) - 2 // non-dense, negative labels too
		}
		idx := rng.Perm(n)[:1+rng.Intn(n)]
		f1, t1, ok1 := bestSplit(X, y, idx)
		f2, t2, ok2 := bruteSplit(X, y, idx)
		if f1 != f2 || ok1 != ok2 || math.Float64bits(t1) != math.Float64bits(t2) && !(math.IsNaN(t1) && math.IsNaN(t2)) {
			t.Fatalf("trial %d: sweep (%d, %v, %v), brute force (%d, %v, %v)\nX=%v y=%v idx=%v",
				trial, f1, t1, ok1, f2, t2, ok2, X, y, idx)
		}
	}
}
