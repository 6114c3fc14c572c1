package edgenet

import (
	"runtime"
	"testing"

	"repro/internal/modular"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// exchangeAllocBudget is TestExchangeAllocBudget's bound, in bytes allocated
// per backbone byte exchanged: 6.1 measured, 13.3 when the server and the
// client still cloned a trainable sub-model per call.
const exchangeAllocBudget = 8.5

// TestExchangeAllocBudget bounds what one steady-state fetch + push exchange
// allocates, both ends and the gob transport between them included, as a
// multiple of the backbone bytes it moves. The exchange decodes the vector
// three times (client fetch, server reference, server push), copies it once
// for the device to train in, and holds int8 codes for it four times, a
// quarter of its size each: five vector sizes, and gob's buffers on top.
// Cloning a trainable sub-model — weights plus gradient accumulators —
// anywhere on the path costs two more each time, which is what this budget
// is here to catch.
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
