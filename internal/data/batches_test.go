package data

import (
	"math"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/tensor"
)

// Every array is NaN-filled on its way back to the arena, so a batch that is
// read after its loan ended reads NaN (see tensor.PoisonReleasedForTests).
func TestMain(m *testing.M) {
	tensor.PoisonReleasedForTests(true)
	os.Exit(m.Run())
}

// TestBatchesLendsOneTensor: Batches hands fn the same tensor and label array
// every time — the ragged last batch re-shaped over the same backing array —
// holding what Batch builds for the same indices, and takes the loan back
// when it returns.
func TestBatchesLendsOneTensor(t *testing.T) {
	const n, batch, seed = 23, 5, 11
	d := NewDataset([]int{2, 3}, 4)
	fill := tensor.NewRNG(3)
	for i := 0; i < n; i++ {
		x := make([]float32, d.SampleLen())
		for j := range x {
			x[j] = float32(fill.NormFloat64())
		}
		d.Add(x, i%4)
	}
	perm := tensor.NewRNG(seed).Perm(n) // Batches' first and only draw

	var lent *tensor.Tensor
	var x0 *float32 // where batch 0 lived: its first element and first label
	var y0 *int
	var seen [][]float32
	calls := 0
	d.Batches(tensor.NewRNG(seed), batch, func(x *tensor.Tensor, y []int) {
		idx := perm[calls*batch:]
		if len(idx) > batch {
			idx = idx[:batch]
		}
		wantX, wantY := d.Batch(idx)
		if !reflect.DeepEqual(x.Shape(), wantX.Shape()) || !reflect.DeepEqual(x.Data, wantX.Data) || !reflect.DeepEqual(y, wantY) {
			t.Fatalf("batch %d (shape %v, labels %v) is not Batch(%v) (shape %v, labels %v)", calls, x.Shape(), y, idx, wantX.Shape(), wantY)
		}
		if calls == 0 {
			lent, x0, y0 = x, &x.Data[0], &y[0]
		} else if x != lent || &x.Data[0] != x0 || &y[0] != y0 {
			t.Fatalf("batch %d of %d samples arrived in another tensor or array than batch 0", calls, len(idx))
		}
		seen = append(seen, x.Data)
		calls++
	})
	if want := (n + batch - 1) / batch; calls != want || n%batch == 0 {
		t.Fatalf("%d batches, want %d with a ragged last one", calls, want)
	}
	if lent.Data != nil {
		t.Fatal("the lent tensor still has its array after Batches returned")
	}
	for b, data := range seen {
		for i, v := range data {
			if !math.IsNaN(float64(v)) {
				t.Fatalf("batch %d element %d reads %v after Batches returned: the array did not go back to the arena", b, i, v)
			}
		}
	}

	// Batch itself still returns a tensor the caller owns.
	x, _ := d.Batch(perm[:batch])
	d.Batches(tensor.NewRNG(seed), batch, func(*tensor.Tensor, []int) {})
	if wantX, _ := d.Batch(perm[:batch]); !reflect.DeepEqual(x.Data, wantX.Data) {
		t.Fatal("a tensor Batch returned changed under a later Batches")
	}
}

// TestBatchesAllocBudget: a pass over the dataset allocates its permutation
// and one label array — 0.04 of the input bytes it hands out here — not an
// input tensor per batch, which alone is 1.
func TestBatchesAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are the race detector's under -race")
	}
	const n, batch, budget = 256, 16, 0.1
	d := NewDataset([]int{64}, 4)
	for i := 0; i < n; i++ {
		d.Add(make([]float32, 64), i%4)
	}
	rng := tensor.NewRNG(1)
	pass := func() { d.Batches(rng, batch, func(*tensor.Tensor, []int) {}) }
	pass()
	// A collection empties the arena; steady state is the warm one.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const passes = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < passes; i++ {
		pass()
	}
	runtime.ReadMemStats(&after)
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(passes*n*d.SampleLen()*4)
	t.Logf("%.3f bytes allocated per input byte batched", perByte)
	if perByte > budget {
		t.Fatalf("one pass allocates %.2f × the input bytes it hands out, budget %.1f", perByte, budget)
	}
}

// TestInOrderCoversEverySampleOnce: InOrder hands out every sample once, in
// dataset order, in chunks of the asked size with a short last one, through
// one lent tensor it takes back when it returns.
func TestInOrderCoversEverySampleOnce(t *testing.T) {
	const n, size = 23, 5
	d := NewDataset([]int{2}, 4)
	for i := 0; i < n; i++ {
		d.Add([]float32{float32(i), -float32(i)}, i%4)
	}
	var lent *tensor.Tensor
	var rows []int
	var sizes []int
	d.InOrder(size, func(x *tensor.Tensor, y []int) {
		if lent != nil && x != lent {
			t.Fatal("InOrder lent a second tensor")
		}
		lent = x
		sizes = append(sizes, len(y))
		for b := range y {
			i := len(rows)
			if x.Data[2*b] != float32(i) || x.Data[2*b+1] != -float32(i) || y[b] != i%4 {
				t.Fatalf("row %d of chunk %d holds sample (%v, %v) label %d, want sample %d", b, len(sizes)-1, x.Data[2*b], x.Data[2*b+1], y[b], i)
			}
			rows = append(rows, i)
		}
	})
	if len(rows) != n || !reflect.DeepEqual(sizes, []int{5, 5, 5, 5, 3}) {
		t.Fatalf("%d samples in chunks %v, want %d in 5, 5, 5, 5, 3", len(rows), sizes, n)
	}
	if lent.Data != nil {
		t.Fatal("the lent tensor still has its array after InOrder returned")
	}
	calls := 0
	NewDataset([]int{2}, 4).InOrder(size, func(*tensor.Tensor, []int) { calls++ })
	if calls != 0 {
		t.Fatalf("an empty dataset made %d calls", calls)
	}
}
