package model

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"clgen/internal/nn"
)

// modelFile is the on-disk representation: the vocabulary plus exactly one
// backend payload. The paper ships its trained network the same way ("the
// trained network can be deployed to lower-compute machines", §4.2).
// Lineage carries the content-hashed model identity across the checkpoint
// boundary, so a deployed model's sampled kernels still journal the
// lineage of the training run that produced it; gob decodes checkpoints
// written before the field existed to "".
type modelFile struct {
	Chars   []byte
	NGram   *nn.NGram
	LSTM    *nn.LSTM
	Lineage string
}

// Save serializes the model (vocabulary + backend) with encoding/gob.
func (m *Model) Save(w io.Writer) error {
	mf := modelFile{Chars: m.Vocab.Chars, Lineage: m.Lineage}
	switch lm := m.LM.(type) {
	case *nn.NGram:
		mf.NGram = lm
	case *nn.LSTM:
		mf.LSTM = lm
	default:
		return fmt.Errorf("model: unsupported backend %T", m.LM)
	}
	if err := gob.NewEncoder(w).Encode(&mf); err != nil {
		return fmt.Errorf("model: save: %w", err)
	}
	return nil
}

// Load deserializes a model written by Save.
func Load(r io.Reader) (*Model, error) {
	var mf modelFile
	if err := gob.NewDecoder(r).Decode(&mf); err != nil {
		return nil, fmt.Errorf("model: load: %w", err)
	}
	v := BuildVocabulary(string(mf.Chars))
	m := &Model{Vocab: v, Lineage: mf.Lineage}
	switch {
	case mf.NGram != nil:
		if err := mf.NGram.Validate(); err != nil {
			return nil, fmt.Errorf("model: load: %w", err)
		}
		m.LM = mf.NGram
	case mf.LSTM != nil:
		m.LM = mf.LSTM
	default:
		return nil, fmt.Errorf("model: file has no backend payload")
	}
	if m.LM.VocabSize() != v.Size() {
		return nil, fmt.Errorf("model: vocabulary size %d does not match backend %d",
			v.Size(), m.LM.VocabSize())
	}
	return m, nil
}

// SaveFile writes the model to path.
func (m *Model) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("model: %w", err)
	}
	defer f.Close()
	if err := m.Save(f); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a model from path.
func LoadFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	defer f.Close()
	return Load(f)
}
