package edgenet

import (
	"runtime"
	"testing"

	"repro/internal/modular"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// exchangeAllocBudget is TestExchangeAllocBudget's bound, in bytes allocated
// per backbone byte exchanged: 1.19–1.22 measured, plus 15 %. It was 3.3
// while the server allocated every new reference and both senders every
// chunk's codes, 6.1 while every decode allocated its output and gob
// allocated every chunk's codes twice, and 13.3 when the server and the
// client still cloned a trainable sub-model per call.
const exchangeAllocBudget = 1.4

// TestExchangeAllocBudget bounds what one steady-state fetch + push exchange
// allocates, both ends and the transport between them included, as a multiple
// of the backbone bytes it moves. One vector is allocated per exchange — the
// copy the device trains in, which has a second reader — and the envelopes and
// the sub-model's own structure come on top (≈ 0.2). Nothing else the size of
// the vector is: the server's new reference for the device lives in an arena
// array the reference it replaced handed back, each sender builds its codes
// and chunk table in arrays it keeps, the client lands a delta fetch on its
// reference's own array, the server's push decode borrows from the arena, and
// received frames live in buffers the codec keeps. One more vector anywhere on
// the path is +1.0 and one sender's int8 codes +0.25, and either trips this;
// cloning a trainable sub-model — weights plus gradient accumulators — is +2.0.
func TestExchangeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are the race detector's under -race")
	}
	build := func() *modular.Model {
		cfg := modular.Config{ModulesPerLayer: 8, TopK: 2, EmbedDim: 16, ResidualModules: true, MinShrink: 0.25, MaxShrink: 0.5}
		return modular.NewModularMLP(tensor.NewRNG(17), 32, 128, 10, cfg)
	}
	cloud := build()
	srv := NewServer(cloud, 16)
	cl := pipePair(t, srv, build())
	if err := cl.Hello(); err != nil {
		t.Fatal(err)
	}
	imp := uniformImportance(cloud)
	var backbone int
	exchange := func() {
		sub, err := cl.FetchSubModel(imp, looseBudget())
		if err != nil {
			t.Fatal(err)
		}
		params := sub.Params()
		for _, p := range params {
			p.W.Data[0] += 0.01
		}
		backbone = 4 * nn.ParamCount(params)
		if err := cl.PushUpdate(sub, imp, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		exchange()
	}
	const n = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		exchange()
	}
	runtime.ReadMemStats(&after)
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(n*backbone)
	t.Logf("%.2f bytes allocated per backbone byte exchanged (%d KiB backbone)", perByte, backbone/1024)
	if perByte > exchangeAllocBudget {
		t.Fatalf("one exchange allocates %.2f × its backbone bytes, budget %.1f", perByte, exchangeAllocBudget)
	}
}
