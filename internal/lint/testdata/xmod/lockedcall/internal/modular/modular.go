// Package modular stands in for repro/internal/modular (import path suffix
// internal/modular): Extract is a weight clone of the whole selection.
// Nothing here is a finding.
package modular

type Model struct{ Weights []float32 }

// Extract copies the model's weights.
func (m *Model) Extract() *Model {
	return &Model{Weights: append([]float32(nil), m.Weights...)}
}

// Flatten is the cheap snapshot a handler may take under its lock.
func (m *Model) Flatten(dst []float32) []float32 { return append(dst, m.Weights...) }
