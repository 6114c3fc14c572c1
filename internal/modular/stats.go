package modular

import (
	"math"

	"repro/internal/tensor"
)

// RoutingStats summarizes one module layer's routing behavior over a probe
// batch — the diagnostics used to judge whether the selector learned a
// useful task decomposition.
type RoutingStats struct {
	// Utilization[i] is the fraction of samples that activated module i.
	Utilization []float64
	// MeanEntropy is the average per-sample entropy of the gate
	// distribution in nats (0 = one-hot routing, ln(N) = uniform).
	MeanEntropy float64
	// LoadCV is the coefficient of variation of the per-module importance —
	// the quantity the load-balancing loss drives toward zero.
	LoadCV float64
}

// Routing computes per-layer routing statistics for a probe batch.
func (m *Model) Routing(x *tensor.Tensor) []RoutingStats {
	probs := m.Selector.Forward(x, false)
	batch := x.Dim(0)
	out := make([]RoutingStats, len(m.Layers))
	for l, layer := range m.Layers {
		n := layer.N()
		st := RoutingStats{Utilization: make([]float64, n)}
		imp := make([]float64, n)
		var entropy float64
		for b := 0; b < batch; b++ {
			row := probs[l][b]
			for i, p := range row {
				imp[i] += float64(p)
				if p > 0 {
					entropy -= float64(float64(p) * math.Log(float64(p)))
				}
			}
			k := m.TopK
			if k > n {
				k = n
			}
			for _, i := range tensor.TopK(row, k) {
				st.Utilization[i]++
			}
		}
		for i := range st.Utilization {
			st.Utilization[i] /= float64(batch)
		}
		st.MeanEntropy = entropy / float64(batch)
		var s1, s2 float64
		for _, v := range imp {
			s1 += v
			s2 += float64(v * v)
		}
		if s1 > 0 {
			mean := s1 / float64(n)
			variance := s2/float64(n) - float64(mean*mean)
			if variance < 0 {
				variance = 0
			}
			st.LoadCV = math.Sqrt(variance) / mean
		}
		out[l] = st
	}
	return out
}
