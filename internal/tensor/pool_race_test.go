package tensor

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestParallelKernelsRace drives ParallelFor from several goroutines at once
// so `go test -race` exercises the shared worker pool and its pooled loop
// descriptors. Each index writes its own slot; any overlap or capture bug
// surfaces as a race report or a wrong sum.
func TestParallelKernelsRace(t *testing.T) {
	const n = 1 << 14
	const callers = 4
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			buf := make([]float32, n)
			ParallelFor(n, func(i int) { buf[i] = float32(i + seed) })
			for i := range buf {
				if buf[i] != float32(i+seed) {
					t.Errorf("caller %d: buf[%d] = %v, want %v", seed, i, buf[i], float32(i+seed))
					return
				}
			}

			var total atomic.Int64
			ParallelFor(n, func(i int) { total.Add(int64(i)) })
			if want := int64(n) * (n - 1) / 2; total.Load() != want {
				t.Errorf("caller %d: atomic sum = %d, want %d", seed, total.Load(), want)
			}
		}(c)
	}
	wg.Wait()
}
