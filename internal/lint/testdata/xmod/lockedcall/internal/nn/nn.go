// Package nn stands in for repro/internal/nn: its import path ends in
// internal/nn, which is how lockedcall's CPU-heavy seeds recognise the
// quantizer. Nothing here is a finding.
package nn

// Quantize8 costs time proportional to the vector.
func Quantize8(vec []float32) []byte {
	codes := make([]byte, len(vec))
	for i, v := range vec {
		codes[i] = byte(v)
	}
	return codes
}
