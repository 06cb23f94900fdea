package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// LanguageModel is a generative character model over an integer vocabulary.
// Both the LSTM and the n-gram backends implement it; the CLgen sampler is
// backend-agnostic.
type LanguageModel interface {
	// VocabSize returns the number of symbols.
	VocabSize() int
	// NewSession returns a fresh stateful predictor.
	NewSession() Session
}

// Session is a stateful next-character predictor.
type Session interface {
	// Observe feeds one symbol of context.
	Observe(x int)
	// Distribution writes the next-symbol probability distribution at the
	// given sampling temperature into out (length VocabSize) and returns it.
	Distribution(temperature float64, out []float64) []float64
}

// --- LSTM adapter ---

// VocabSize implements LanguageModel.
func (m *LSTM) VocabSize() int { return m.Vocab }

// NewSession implements LanguageModel.
func (m *LSTM) NewSession() Session {
	return &lstmSession{m: m, st: m.ZeroState()}
}

type lstmSession struct {
	m      *LSTM
	st     *State
	logits []float64
}

func (s *lstmSession) Observe(x int) {
	s.logits = s.m.Step(x, s.st)
}

func (s *lstmSession) Distribution(temperature float64, out []float64) []float64 {
	if s.logits == nil {
		// No context yet: uniform.
		for i := range out {
			out[i] = 1 / float64(len(out))
		}
		return out
	}
	return Softmax(s.logits, out, temperature)
}

// --- n-gram model ---

// Succ is one successor of a stored context: the symbol, how often it
// followed the context in training, and the transition to the node of the
// context extended by the symbol (truncated to Order symbols).
type Succ struct {
	Sym   uint16
	Count uint32
	Next  int32
}

// Node is one stored context of an NGram's context tree.
type Node struct {
	// Succs lists the successors in the order training first saw them.
	Succs []Succ
	// Suffix is the node of the context without its first symbol; -1 at
	// the root (the empty context).
	Suffix int32
}

// NGram is a high-order character-level n-gram model with longest-match
// backoff. Entirely probabilistic and learned from the corpus, it serves
// as the converged-model stand-in for large-scale sampling (see DESIGN.md).
//
// The model is a context tree: Nodes[0] is the empty context, and every
// corpus substring of at most Order symbols that training saw is one node,
// linked to its one-symbol-shorter suffix and, per successor, to the node
// that follows it. Training and sampling walk these links instead of
// looking contexts up by key.
type NGram struct {
	Order int // context length in symbols
	Vocab int
	Nodes []Node

	// Lineage is the content-hashed model identity (see LSTM.Lineage);
	// stamped by internal/model after fitting, "" for old checkpoints.
	Lineage string
}

// NewNGram creates an empty model of the given order (context length).
func NewNGram(vocab, order int) *NGram {
	if order < 1 {
		order = 1
	}
	return &NGram{Order: order, Vocab: vocab, Nodes: []Node{{Suffix: -1}}}
}

// TrainNGram builds an n-gram model from an encoded corpus.
func TrainNGram(corpus []int, vocab, order int) (*NGram, error) {
	if vocab > 65535 {
		return nil, fmt.Errorf("nn: vocabulary too large for n-gram model")
	}
	m := NewNGram(vocab, order)
	m.Add(corpus)
	return m, nil
}

// Add accumulates counts from an additional encoded corpus. Every
// position counts its symbol after each context length 0..Order ending
// there, so backoff always has somewhere to land; contexts do not span
// separate Add calls.
func (m *NGram) Add(corpus []int) {
	chain := make([]int32, m.Order+1)
	cur, depth := int32(0), 0 // node of the last min(t, Order) symbols
	for _, x := range corpus {
		// Bump shortest context first: a new successor's transition
		// needs the transition its suffix just got.
		for v, d := cur, depth; d >= 0; v, d = m.Nodes[v].Suffix, d-1 {
			chain[d] = v
		}
		for d, v := range chain[:depth+1] {
			if next := m.bump(v, d, x); d == depth {
				cur = next
			}
		}
		if depth < m.Order {
			depth++
		}
	}
}

// bump counts sym after node v of depth d and returns v's transition on
// sym, creating the successor (and, below depth Order, its node).
func (m *NGram) bump(v int32, d, sym int) int32 {
	succs := m.Nodes[v].Succs
	for i := range succs {
		if int(succs[i].Sym) == sym {
			succs[i].Count++
			return succs[i].Next
		}
	}
	var next int32
	if d == m.Order {
		// Truncation drops the first symbol: the suffix's transition.
		next = m.next(m.Nodes[v].Suffix, sym)
	} else {
		suffix := int32(0)
		if v != 0 {
			suffix = m.next(m.Nodes[v].Suffix, sym)
		}
		next = int32(len(m.Nodes))
		m.Nodes = append(m.Nodes, Node{Suffix: suffix})
	}
	m.Nodes[v].Succs = append(m.Nodes[v].Succs, Succ{Sym: uint16(sym), Count: 1, Next: next})
	return next
}

// next returns v's transition on sym, or -1 when sym never followed v.
func (m *NGram) next(v int32, sym int) int32 {
	for _, sc := range m.Nodes[v].Succs {
		if int(sc.Sym) == sym {
			return sc.Next
		}
	}
	return -1
}

// Validate checks the context tree's links, so a checkpoint that decodes
// into a malformed model fails at load time instead of panicking or
// looping while sampling. Training creates a node after its suffix, so
// every suffix link points to a lower index.
func (m *NGram) Validate() error {
	if len(m.Nodes) == 0 {
		return fmt.Errorf("nn: n-gram has no context tree (checkpoint from an older format); retrain the model")
	}
	n := int32(len(m.Nodes))
	for i, nd := range m.Nodes {
		if (i == 0) != (nd.Suffix < 0) || nd.Suffix >= int32(i) {
			return fmt.Errorf("nn: n-gram node %d: bad suffix link %d", i, nd.Suffix)
		}
		for _, sc := range nd.Succs {
			if sc.Next < 0 || sc.Next >= n || int(sc.Sym) >= m.Vocab {
				return fmt.Errorf("nn: n-gram node %d: bad successor %+v", i, sc)
			}
		}
	}
	return nil
}

// VocabSize implements LanguageModel.
func (m *NGram) VocabSize() int { return m.Vocab }

// NewSession implements LanguageModel.
func (m *NGram) NewSession() Session {
	return &ngramSession{m: m}
}

// Contexts returns the number of stored contexts that have successors
// (diagnostics).
func (m *NGram) Contexts() int {
	n := 0
	for _, nd := range m.Nodes {
		if len(nd.Succs) > 0 {
			n++
		}
	}
	return n
}

type ngramSession struct {
	m *NGram
	// node is the longest suffix of the last Order observed symbols that
	// is a node of the tree; its suffix chain holds every other one.
	node int32
	// ws is scratch for sample's successor weights.
	ws []symWeight
}

type symWeight struct {
	sym int
	w   float64
}

func (s *ngramSession) Observe(x int) {
	for v := s.node; v >= 0; v = s.m.Nodes[v].Suffix {
		if next := s.m.next(v, x); next >= 0 {
			s.node = next
			return
		}
	}
	s.node = 0 // x never followed any context
}

func (s *ngramSession) Distribution(temperature float64, out []float64) []float64 {
	if temperature <= 0 {
		temperature = 1
	}
	for i := range out {
		out[i] = 0
	}
	// Longest-match backoff: use the longest stored context suffix.
	for v := s.node; v >= 0; v = s.m.Nodes[v].Suffix {
		lst := s.m.Nodes[v].Succs
		if len(lst) == 0 {
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

// sample draws the next symbol straight from the backoff node's
// successors. It returns exactly what SampleDist returns over
// Distribution's output for the same rng state: one rng.Float64(), the
// weights summed in first-seen order, their quotients accumulated in
// ascending symbol order, and Vocab-1 when no symbol is reached. It
// returns false, before drawing, for an empty model (uniform) and for a
// NaN temperature, whose NaN weight sums make Distribution back off
// keeping the skipped contexts' weights; SampleNext then takes the
// Distribution path.
func (s *ngramSession) sample(temperature float64, rng *rand.Rand) (int, bool) {
	if temperature <= 0 {
		temperature = 1
	}
	v := s.node
	for v >= 0 && len(s.m.Nodes[v].Succs) == 0 {
		v = s.m.Nodes[v].Suffix
	}
	if v < 0 || math.IsNaN(temperature) {
		return 0, false
	}
	lst := s.m.Nodes[v].Succs
	r := rng.Float64()
	exp := 1 / temperature
	if len(lst) == 1 && exp <= 16 {
		// 1 <= count^exp < 2^512 is finite, so w/sum == w/w == 1 > r.
		return int(lst[0].Sym), true
	}
	var sum float64
	ws := s.ws[:0]
	for _, sc := range lst {
		w := math.Pow(float64(sc.Count), exp)
		sum += w
		// Insertion into ascending symbol order.
		i := len(ws)
		ws = append(ws, symWeight{})
		for ; i > 0 && ws[i-1].sym > int(sc.Sym); i-- {
			ws[i] = ws[i-1]
		}
		ws[i] = symWeight{int(sc.Sym), w}
	}
	s.ws = ws
	var c float64
	for _, e := range ws {
		c += e.w / sum
		if r < c {
			return e.sym, true
		}
	}
	return s.m.Vocab - 1, true
}

// SampleNext draws the next symbol from a session at the given temperature.
func SampleNext(s Session, temperature float64, rng *rand.Rand, scratch []float64) int {
	if ns, ok := s.(*ngramSession); ok {
		if sym, ok := ns.sample(temperature, rng); ok {
			return sym
		}
	}
	return SampleDist(s.Distribution(temperature, scratch), rng)
}
