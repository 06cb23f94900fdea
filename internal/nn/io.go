package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
)

// SaveLSTM serializes the model with encoding/gob.
func SaveLSTM(w io.Writer, m *LSTM) error {
	if err := gob.NewEncoder(w).Encode(m); err != nil {
		return fmt.Errorf("nn: save lstm: %w", err)
	}
	return nil
}

// LoadLSTM deserializes a model written by SaveLSTM.
func LoadLSTM(r io.Reader) (*LSTM, error) {
	var m LSTM
	if err := gob.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("nn: load lstm: %w", err)
	}
	return &m, nil
}

// SaveLSTMFile writes the model to a file.
func SaveLSTMFile(path string, m *LSTM) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("nn: %w", err)
	}
	defer f.Close()
	if err := SaveLSTM(f, m); err != nil {
		return err
	}
	return f.Close()
}

// LoadLSTMFile reads a model from a file.
func LoadLSTMFile(path string) (*LSTM, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("nn: %w", err)
	}
	defer f.Close()
	return LoadLSTM(f)
}

// SaveNGram serializes an n-gram model.
func SaveNGram(w io.Writer, m *NGram) error {
	if err := gob.NewEncoder(w).Encode(m); err != nil {
		return fmt.Errorf("nn: save ngram: %w", err)
	}
	return nil
}

// LoadNGram deserializes an n-gram model.
func LoadNGram(r io.Reader) (*NGram, error) {
	var m NGram
	if err := gob.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("nn: load ngram: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}
