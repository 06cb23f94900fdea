package nn

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// refNGram is the string-keyed n-gram model the context tree replaced,
// kept verbatim as the reference the tree must reproduce bit for bit.
type refNGram struct {
	order  int
	counts map[string][]Succ // context (encoded as bytes) -> successors
}

func newRefNGram(order int) *refNGram {
	if order < 1 {
		order = 1
	}
	return &refNGram{order: order, counts: map[string][]Succ{}}
}

func (m *refNGram) add(corpus []int) {
	buf := make([]byte, 0, m.order)
	for t, x := range corpus {
		lo := t - m.order
		if lo < 0 {
			lo = 0
		}
		for s := t; s >= lo; s-- {
			buf = buf[:0]
			for _, c := range corpus[s:t] {
				buf = append(buf, byte(c))
			}
			m.bump(string(buf), x)
		}
	}
}

func (m *refNGram) bump(ctx string, sym int) {
	lst := m.counts[ctx]
	for i := range lst {
		if int(lst[i].Sym) == sym {
			lst[i].Count++
			return
		}
	}
	m.counts[ctx] = append(lst, Succ{Sym: uint16(sym), Count: 1})
}

type refSession struct {
	m   *refNGram
	ctx []byte
}

func (s *refSession) Observe(x int) {
	s.ctx = append(s.ctx, byte(x))
	if len(s.ctx) > s.m.order {
		s.ctx = s.ctx[len(s.ctx)-s.m.order:]
	}
}

func (s *refSession) Distribution(temperature float64, out []float64) []float64 {
	if temperature <= 0 {
		temperature = 1
	}
	for i := range out {
		out[i] = 0
	}
	for start := 0; start <= len(s.ctx); start++ {
		lst, ok := s.m.counts[string(s.ctx[start:])]
		if !ok || len(lst) == 0 {
			continue
		}
		var sum float64
		for _, sc := range lst {
			w := math.Pow(float64(sc.Count), 1/temperature)
			out[sc.Sym] = w
			sum += w
		}
		if sum > 0 {
			for i := range out {
				out[i] /= sum
			}
			return out
		}
	}
	for i := range out {
		out[i] = 1 / float64(len(out))
	}
	return out
}

// randomCorpus draws a corpus over the first alpha symbols. Low-entropy
// corpora repeat long contexts (deep single-successor chains); high-entropy
// ones exercise wide nodes and short backoff.
func randomCorpus(rng *rand.Rand, n, alpha int) []int {
	c := make([]int, n)
	if rng.Intn(2) == 0 {
		for i := range c {
			c[i] = rng.Intn(alpha)
		}
		return c
	}
	// Repeated random phrases with occasional noise.
	phrases := make([][]int, 1+rng.Intn(6))
	for i := range phrases {
		phrases[i] = make([]int, 1+rng.Intn(12))
		for j := range phrases[i] {
			phrases[i][j] = rng.Intn(alpha)
		}
	}
	c = c[:0]
	for len(c) < n {
		c = append(c, phrases[rng.Intn(len(phrases))]...)
		if rng.Intn(4) == 0 {
			c = append(c, rng.Intn(alpha))
		}
	}
	return c[:n]
}

func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestNGramMatchesReference is the differential gate for the context
// tree: on random corpora, orders and temperatures, Distribution must be
// bit-identical to the string-keyed reference and SampleNext must draw the
// same symbols from the same RNG stream. Sessions see symbols the corpus
// never contains, and each one starts from the end-of-corpus context,
// whose node may have no successors.
func TestNGramMatchesReference(t *testing.T) {
	orders := []int{1, 2, 3, 4, 5, 6, 7, 8, 28}
	temps := []float64{0.5, 0.9, 1, 2, 0.05, math.Inf(1), math.NaN()}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		vocab := 2 + rng.Intn(40)
		alpha := 1 + rng.Intn(vocab) // symbols alpha..vocab-1 are never seen
		order := orders[trial%len(orders)]
		m := NewNGram(vocab, order)
		ref := newRefNGram(order)
		var tail []int
		for parts := 1 + rng.Intn(2); parts > 0; parts-- {
			c := randomCorpus(rng, rng.Intn(400), alpha)
			m.Add(c)
			ref.add(c)
			tail = c
		}
		if got, want := m.Contexts(), len(ref.counts); got != want {
			t.Fatalf("trial %d: Contexts() = %d, reference %d", trial, got, want)
		}
		temp := temps[trial%len(temps)]
		sess, refSess := m.NewSession(), &refSession{m: ref}
		if len(tail) > order {
			tail = tail[len(tail)-order:]
		}
		for _, x := range tail {
			sess.Observe(x)
			refSess.Observe(x)
		}
		seed := rng.Int63()
		r1, r2 := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		if trial%4 == 3 {
			// Draws just below 1 reach the Vocab-1 fallback whenever the
			// accumulated quotients round short of 1.
			r1, r2 = rand.New(nearOneSource{}), rand.New(nearOneSource{})
		}
		got, want := make([]float64, vocab), make([]float64, vocab)
		for step := 0; step < 400; step++ {
			sess.Distribution(temp, got)
			refSess.Distribution(temp, want)
			if !sameBits(got, want) {
				t.Fatalf("trial %d step %d (order %d, T=%g): distribution\n got %v\nwant %v",
					trial, step, order, temp, got, want)
			}
			x := SampleNext(sess, temp, r1, got)
			if y := SampleDist(refSess.Distribution(temp, want), r2); x != y {
				t.Fatalf("trial %d step %d (order %d, T=%g): sampled %d, reference %d",
					trial, step, order, temp, x, y)
			}
			if rng.Intn(25) == 0 {
				x = rng.Intn(vocab) // may be a symbol training never saw
			}
			sess.Observe(x)
			refSess.Observe(x)
		}
	}
}

// nearOneSource makes every rand.Float64 return 1-2^-53, its largest value.
type nearOneSource struct{}

func (nearOneSource) Int63() int64 { return 1<<63 - 1024 }
func (nearOneSource) Seed(int64)   {}

// TestNGramEmptyModelIsUniform covers the model trained on nothing: the
// root has no successors, so both paths fall back to uniform.
func TestNGramEmptyModelIsUniform(t *testing.T) {
	m, ref := NewNGram(5, 3), newRefNGram(3)
	m.Add(nil)
	sess, refSess := m.NewSession(), &refSession{m: ref}
	r1, r2 := rand.New(rand.NewSource(4)), rand.New(rand.NewSource(4))
	got, want := make([]float64, 5), make([]float64, 5)
	for i := 0; i < 100; i++ {
		if !sameBits(sess.Distribution(1, got), refSess.Distribution(1, want)) {
			t.Fatalf("distribution %v, reference %v", got, want)
		}
		if x, y := SampleNext(sess, 1, r1, got), SampleDist(want, r2); x != y {
			t.Fatalf("sampled %d, reference %d", x, y)
		}
	}
}

// TestLoadNGramRejectsOldCheckpoint checks a checkpoint of the
// string-keyed format, which gob decodes into a model with no context
// tree, fails to load with a retrain hint instead of panicking later.
func TestLoadNGramRejectsOldCheckpoint(t *testing.T) {
	type oldNGram struct {
		Order   int
		Vocab   int
		Counts  map[string][]Succ
		Lineage string
	}
	var buf bytes.Buffer
	old := oldNGram{Order: 2, Vocab: 3, Counts: map[string][]Succ{"": {{Sym: 1, Count: 2}}}}
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatal(err)
	}
	_, err := LoadNGram(&buf)
	if err == nil || !strings.Contains(err.Error(), "retrain") {
		t.Fatalf("old checkpoint: err = %v, want a retrain error", err)
	}
}

// TestLoadNGramRejectsBadLinks checks a tree with a dangling transition,
// a suffix-link cycle or an out-of-vocabulary successor is refused at
// load time.
func TestLoadNGramRejectsBadLinks(t *testing.T) {
	for name, corrupt := range map[string]func(m *NGram){
		"dangling transition": func(m *NGram) { m.Nodes[0].Succs[0].Next = int32(len(m.Nodes)) },
		"suffix cycle":        func(m *NGram) { m.Nodes[1].Suffix = int32(len(m.Nodes) - 1) },
		"symbol out of vocab": func(m *NGram) { m.Nodes[0].Succs[0].Sym = uint16(m.Vocab) },
	} {
		m, _ := TrainNGram([]int{0, 1, 2, 0, 1}, 3, 2)
		corrupt(m)
		var buf bytes.Buffer
		if err := SaveNGram(&buf, m); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadNGram(&buf); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
