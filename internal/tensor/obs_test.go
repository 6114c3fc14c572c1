package tensor

import "testing"

// TestDispatchCountersMove sanity-checks the kernel telemetry: each dispatch
// site increments its counter, and instrumentation stays allocation-free on
// the scratch hot path.
func TestDispatchCountersMove(t *testing.T) {
	m, n, k := 8, 16, 16 // m·n·k = 2048 ≥ packedMinWork and n ≥ nr: packed path
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	c := make([]float32, m*n)

	packedBefore := gemmPackedCount.Value()
	Gemm(false, false, m, n, k, 1, a, b, 0, c)
	if gemmPackedCount.Value() != packedBefore+1 {
		t.Error("packed GEMM dispatch not counted")
	}
	naiveBefore := gemmNaiveCount.Value()
	Gemm(false, false, 2, 2, 2, 0.5, a[:4], b[:4], 0, c[:4]) // alpha≠1: naive path
	if gemmNaiveCount.Value() != naiveBefore+1 {
		t.Error("naive GEMM dispatch not counted")
	}

	// The race runtime drops about one sync.Pool Put in four, so a warm get
	// can miss there; it retries the put/get pair, and a get that never hits
	// still fails.
	tries := 1
	if raceEnabled {
		tries = 8
	}
	for try := 1; ; try++ {
		missBefore, hitBefore := scratchMiss.Value(), scratchHit.Value()
		s := GetScratch(1 << scratchMinBits)
		PutScratch(s)
		s2 := GetScratch(1 << scratchMinBits)
		PutScratch(s2)
		if scratchMiss.Value() <= missBefore && scratchHit.Value() <= hitBefore {
			t.Error("scratch get counted neither hit nor miss")
		}
		if scratchHit.Value() >= hitBefore+1 {
			break
		}
		if try == tries {
			t.Errorf("warm scratch get not counted as hit (%d tries)", tries)
			break
		}
	}

	overBefore := scratchOversize.Value()
	PutScratch(GetScratch((1 << scratchMaxBits) + 1))
	if scratchOversize.Value() != overBefore+1 {
		t.Error("oversize scratch get not counted")
	}

	serialBefore := parSerial.Value()
	ParallelFor(1, func(int) {})
	if parSerial.Value() != serialBefore+1 {
		t.Error("serial ParallelFor dispatch not counted")
	}
}
