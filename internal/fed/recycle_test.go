package fed

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/edgenet"
	"repro/internal/modular"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// TestSimulatedLinkRecyclesVectors runs the lossy async lifecycle — top-k
// pushes over the simulated v2 link, link faults, a straggler whose pending
// work is dropped when it leaves, a device that joins — with every released
// array NaN-filled (TestMain), at one worker and at four. Every downlink
// reference and uplink reconstruction of that run goes back to the arena from
// its one owner; one handed back while it is still read would put NaN into the
// cloud model. So the ledger, the landed, late and dropped counts and a hash of
// the cloud parameters must agree across worker counts and equal what the
// simulator produced while it allocated every reconstruction afresh (want).
func TestSimulatedLinkRecyclesVectors(t *testing.T) {
	const want = "up=155135 down=335052 sim=3fe54e24c0322191 rounds=4 landed=23 late=1 dropped=1 params=81e824f9915145dd"
	for _, workers := range []int{1, 4} {
		log, costs, vec, _ := asyncChurnScenarioOver(t, workers, nil, true)
		events, err := trace.Read(bytes.NewReader(log))
		if err != nil {
			t.Fatal(err)
		}
		var landed, late, dropped int
		for _, e := range events {
			switch {
			case e.Kind == trace.KindAggregate:
				landed += e.Modules
			case e.Kind == trace.KindClientUpdate && e.Stale > 0:
				late++
			case e.Kind == trace.KindChurn && e.Note == "drop_pending":
				dropped++
			}
		}
		h := fnv.New64a()
		for _, x := range vec {
			b := math.Float32bits(x)
			h.Write([]byte{byte(b), byte(b >> 8), byte(b >> 16), byte(b >> 24)})
		}
		got := fmt.Sprintf("up=%d down=%d sim=%016x rounds=%d landed=%d late=%d dropped=%d params=%016x",
			costs.BytesUp, costs.BytesDown, math.Float64bits(costs.SimTime), costs.Rounds, landed, late, dropped, h.Sum64())
		if dropped == 0 {
			t.Fatalf("workers=%d: no pending work was dropped: %s", workers, got)
		}
		if got != want {
			t.Errorf("workers=%d: %s\n want %s", workers, got, want)
		}
	}
}

// TestCrossAllocBudget: a steady-state crossing — a worker's Encoder that has
// built as long a payload before, warm arenas — allocates no array the size of
// the vector it moves: the flatten buffer is kernel scratch, the codes live in
// the Encoder and the reconstruction in an array the last crossing's owner
// handed back. What is left is headers, bounded here below an eighth of the
// vector's bytes (len·4/8) per call, for a full and a dense delta downlink
// (cross) and a top-k delta uplink (wireUplink).
func TestCrossAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are the race detector's under -race")
	}
	mcfg := modular.Config{ModulesPerLayer: 8, TopK: 2, EmbedDim: 16, ResidualModules: true, MinShrink: 0.25, MaxShrink: 0.5}
	m := modular.NewModularMLP(tensor.NewRNG(91), 64, 256, 6, mcfg)
	sub := m.Extract(firstTwoModules(m))
	var enc edgenet.Encoder
	_, ref := wireDownlink(&enc, sub, sub.Backbone(), nil)
	n := len(ref.Vec)
	for _, tc := range []struct {
		what string
		ref  *edgenet.WireRef
		opts edgenet.WireOpts
	}{
		{"full", nil, edgenet.WireOpts{}},
		{"delta", ref, edgenet.WireOpts{}},
		{"top-k", ref, edgenet.WireOpts{TopK: 0.25}},
	} {
		crossing := func() {
			if tc.opts.TopK > 0 {
				_, _, far := wireUplink(&enc, sub, sub.Backbone(), tc.ref, tc.opts)
				tensor.Release(far)
				return
			}
			_, next := cross(&enc, sub, sub.Backbone(), sub.AppendBackboneVector, tc.ref)
			next.Release()
		}
		for i := 0; i < 3; i++ {
			crossing()
		}
		// A collection empties the arenas; steady state is the warm arena.
		gc := debug.SetGCPercent(-1)
		const calls = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			crossing()
		}
		runtime.ReadMemStats(&after)
		debug.SetGCPercent(gc)
		perCall := float64(after.TotalAlloc-before.TotalAlloc) / calls
		t.Logf("%s: %.0f B allocated per crossing of %d elements", tc.what, perCall, n)
		if perCall >= float64(n*4/8) {
			t.Errorf("%s: a crossing of %d elements allocates %.0f B, budget %d B", tc.what, n, perCall, n*4/8)
		}
	}
}
