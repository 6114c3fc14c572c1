package device

import (
	"repro/internal/tensor"
)

// Monitor is the runtime resource monitor of one simulated device: it tracks
// the inner runtime dynamics (co-running processes appearing and leaving,
// bandwidth jitter) and exposes the current Profile. The paper's online
// stage polls this before each sub-model derivation.
type Monitor struct {
	Class Class
	rng   *tensor.RNG

	// background process count evolves as a bounded random walk.
	backgroundProcs int
	maxProcs        int
	// memory pressure from co-running apps, bytes.
	foreignMemory int64
}

// NewMonitor creates a runtime monitor for a device of the given class.
func NewMonitor(rng *tensor.RNG, class Class) *Monitor {
	return &Monitor{Class: class, rng: rng.Split(), maxProcs: 4}
}

// Step advances the runtime state by one time slot: background processes
// arrive/depart and memory pressure drifts.
func (m *Monitor) Step() {
	switch m.rng.Intn(4) {
	case 0:
		if m.backgroundProcs < m.maxProcs {
			m.backgroundProcs++
		}
	case 1:
		if m.backgroundProcs > 0 {
			m.backgroundProcs--
		}
	}
	// Each background process occupies 200–600 MB.
	m.foreignMemory = 0
	for i := 0; i < m.backgroundProcs; i++ {
		m.foreignMemory += int64(200+m.rng.Intn(400)) << 20
	}
}

// SetBackgroundProcs pins the contention level (used by the Figure 1(b)
// experiment, which sweeps it explicitly).
func (m *Monitor) SetBackgroundProcs(n int) {
	m.backgroundProcs = n
	m.foreignMemory = int64(n) * (400 << 20)
}

// Profile returns the current available-resource snapshot.
func (m *Monitor) Profile() Profile {
	contention := ContentionFactor(m.backgroundProcs)
	mem := m.Class.MemoryBytes - m.foreignMemory
	if mem < 0 {
		mem = 0
	}
	// Bandwidth jitters ±30% around nominal.
	bw := m.Class.BandwidthBps * (0.7 + 0.6*m.rng.Float64())
	return Profile{
		ComputeFLOPS: m.Class.ComputeFLOPS / contention,
		MemoryBytes:  mem,
		BandwidthBps: bw,
	}
}
