// Package ml provides the machine-learning primitives of the paper's
// methodology: a CART decision-tree classifier (the Grewe et al. model is
// "a decision tree constructed with supervised learning"), principal
// component analysis for the Figure 3 feature-space projections, and
// evaluation helpers.
package ml

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// TreeConfig controls decision-tree induction.
type TreeConfig struct {
	MaxDepth   int // default 12
	MinSamples int // minimum samples to attempt a split; default 2
}

func (c *TreeConfig) defaults() {
	if c.MaxDepth <= 0 {
		c.MaxDepth = 12
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 2
	}
}

// Tree is a trained CART classifier.
type Tree struct {
	root *node
	// NumFeatures is the expected input width.
	NumFeatures int
}

type node struct {
	leaf      bool
	label     int
	feature   int
	threshold float64
	left      *node // feature <= threshold
	right     *node // feature > threshold
}

// TrainTree fits a CART decision tree with Gini-impurity splits.
func TrainTree(X [][]float64, y []int, cfg TreeConfig) (*Tree, error) {
	if len(X) == 0 || len(X) != len(y) {
		return nil, fmt.Errorf("ml: bad training set: %d samples, %d labels", len(X), len(y))
	}
	width := len(X[0])
	for i, x := range X {
		if len(x) != width {
			return nil, fmt.Errorf("ml: sample %d has width %d, want %d", i, len(x), width)
		}
	}
	cfg.defaults()
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	t := &Tree{NumFeatures: width}
	t.root = build(X, y, idx, cfg, 0)
	return t, nil
}

// Predict classifies one sample.
func (t *Tree) Predict(x []float64) int {
	n := t.root
	for !n.leaf {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.label
}

// Depth returns the tree height (diagnostics).
func (t *Tree) Depth() int { return depth(t.root) }

// Leaves returns the leaf count (diagnostics).
func (t *Tree) Leaves() int { return leaves(t.root) }

func depth(n *node) int {
	if n == nil || n.leaf {
		return 0
	}
	l, r := depth(n.left), depth(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

func leaves(n *node) int {
	if n == nil {
		return 0
	}
	if n.leaf {
		return 1
	}
	return leaves(n.left) + leaves(n.right)
}

func build(X [][]float64, y []int, idx []int, cfg TreeConfig, d int) *node {
	maj, pure := majority(y, idx)
	if pure || d >= cfg.MaxDepth || len(idx) < cfg.MinSamples {
		return &node{leaf: true, label: maj}
	}
	feat, thr, ok := bestSplit(X, y, idx)
	if !ok {
		return &node{leaf: true, label: maj}
	}
	var li, ri []int
	for _, i := range idx {
		if X[i][feat] <= thr {
			li = append(li, i)
		} else {
			ri = append(ri, i)
		}
	}
	if len(li) == 0 || len(ri) == 0 {
		return &node{leaf: true, label: maj}
	}
	return &node{
		feature:   feat,
		threshold: thr,
		left:      build(X, y, li, cfg, d+1),
		right:     build(X, y, ri, cfg, d+1),
	}
}

// majority returns the most common label and whether the set is pure.
// Ties break toward the smaller label for determinism.
func majority(y []int, idx []int) (int, bool) {
	counts := map[int]int{}
	for _, i := range idx {
		counts[y[i]]++
	}
	best, bestN := 0, -1
	var labels []int
	for l := range counts {
		labels = append(labels, l)
	}
	sort.Ints(labels)
	for _, l := range labels {
		if counts[l] > bestN {
			best, bestN = l, counts[l]
		}
	}
	return best, len(counts) == 1
}

// bestSplit searches every feature for the Gini-optimal threshold: the
// midpoint of two consecutive distinct values, the earliest on ties. One
// sorted sweep per feature moves samples left while value <= threshold,
// so a midpoint that rounds up to the larger value keeps both on the left,
// as Predict and build partition them. NaN values, which sort.Float64s
// puts first, give one NaN threshold that sends every sample right, and
// never go left.
func bestSplit(X [][]float64, y []int, idx []int) (feat int, thr float64, ok bool) {
	// Dense label indices in ascending label order: the Gini terms are
	// summed in that fixed order.
	labels := make([]int, 0, 2)
	for _, i := range idx {
		if k := sort.SearchInts(labels, y[i]); k == len(labels) || labels[k] != y[i] {
			labels = slices.Insert(labels, k, y[i])
		}
	}
	lab := make([]int, len(idx))
	total := make([]int, len(labels))
	for k, i := range idx {
		lab[k] = sort.SearchInts(labels, y[i])
		total[lab[k]]++
	}
	left := make([]int, len(labels))
	type sample struct {
		v   float64
		lab int
	}
	samples := make([]sample, 0, len(idx))

	bestGini := 2.0
	try := func(f int, t float64, ln int) {
		if g := splitGini(left, total, ln, len(idx)); g < bestGini-1e-12 {
			bestGini, feat, thr, ok = g, f, t, true
		}
	}
	width := len(X[idx[0]])
	for f := 0; f < width; f++ {
		samples = samples[:0]
		for k, i := range idx {
			if v := X[i][f]; !math.IsNaN(v) {
				samples = append(samples, sample{v, lab[k]})
			}
		}
		slices.SortFunc(samples, func(a, b sample) int { return cmp.Compare(a.v, b.v) })
		clear(left)
		if len(samples) < len(idx) && len(idx) > 1 {
			try(f, math.NaN(), 0)
		}
		ln := 0
		for v := 1; v < len(samples); v++ {
			if samples[v].v == samples[v-1].v {
				continue
			}
			// t is NaN only between -Inf and +Inf, and nothing moves.
			t := (samples[v].v + samples[v-1].v) / 2
			for ; ln < len(samples) && samples[ln].v <= t; ln++ {
				left[samples[ln].lab]++
			}
			try(f, t, ln)
		}
	}
	return feat, thr, ok
}

// splitGini computes the weighted Gini impurity of a split of n samples
// with per-label counts total, ln of them (per-label counts left) on the
// left.
func splitGini(left, total []int, ln, n int) float64 {
	rn := n - ln
	var lg, rg float64
	if ln > 0 {
		lg = 1.0
		for _, k := range left {
			p := float64(k) / float64(ln)
			lg -= p * p
		}
	}
	if rn > 0 {
		rg = 1.0
		for l, k := range total {
			p := float64(k-left[l]) / float64(rn)
			rg -= p * p
		}
	}
	fn := float64(n)
	return float64(ln)/fn*lg + float64(rn)/fn*rg
}

// Accuracy returns the fraction of correct predictions.
func (t *Tree) Accuracy(X [][]float64, y []int) float64 {
	if len(X) == 0 {
		return 0
	}
	correct := 0
	for i, x := range X {
		if t.Predict(x) == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(X))
}
