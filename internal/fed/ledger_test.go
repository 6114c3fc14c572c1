package fed

import (
	"bytes"
	"testing"

	"repro/internal/edgenet"
	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// TestLedgersAgreeAfterEveryCall pins the one-ledger design: after every
// Adapt and after every LocalAccuracy — which hands a sub-model to each
// device no round has served yet — the live Costs, trace.Summarize over the
// log so far, and the registry replayed from that log are the same numbers,
// bit for bit, and the replayed registry is the live one.
func TestLedgersAgreeAfterEveryCall(t *testing.T) {
	lossy := func(t *testing.T, nb *Nebula) {
		fc, err := edgenet.ParseFaultSpec("drop=0.4,seed=9")
		if err != nil {
			t.Fatal(err)
		}
		nb.Faults = NewFaultModel(fc)
	}
	rows := []struct {
		name  string
		tune  func(*Config)
		arm   func(*testing.T, *Nebula)
		churn bool // the pinned straggler leaves and a new device joins at step 2
	}{
		{name: "sync", tune: func(c *Config) { c.DevicesPerRound = 3 }},
		{name: "async+churn", tune: func(c *Config) { c.Async = true; c.DevicesPerRound = 8 }, churn: true},
		{name: "lossy link", tune: func(c *Config) { c.DevicesPerRound = 4 }, arm: lossy},
		{name: "compressed wire", tune: func(c *Config) {
			c.DevicesPerRound = 4
			c.WireCompress, c.WireTopK = true, 0.25
		}},
		{name: "local-only", tune: func(*Config) {}, arm: func(_ *testing.T, nb *Nebula) { nb.CloudCollaboration = false }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			rng := tensor.NewRNG(77)
			task := HARTask(78, ScaleQuick)
			cfg := tinyCfg()
			cfg.Rounds = 1
			cfg.Workers = 2
			row.tune(&cfg)
			nb := NewNebula(task, cfg)
			nb.TrainCfg.Epochs = 1
			if row.arm != nil {
				row.arm(t, nb)
			}
			reg := obs.NewRegistry()
			nb.Metrics = NewRoundMetrics(reg)
			var log bytes.Buffer
			nb.Trace = trace.NewWithClock(&log, nil)
			nb.Pretrain(rng, proxyFor(rng, task, 10))
			all := harFleet(rng, task, 9, 2)
			pinSlowDevice(all[0], 1e6)
			fleet := all[:8]

			agree := func(after string) {
				t.Helper()
				events, err := trace.Read(bytes.NewReader(log.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				if err := trace.CheckSeq(events); err != nil {
					t.Fatal(err)
				}
				costs := nb.Costs()
				if sum := trace.Summarize(events); sum != costs {
					t.Fatalf("after %s: Costs %+v, trace.Summarize %+v", after, costs, sum)
				}
				replayed := ReplayTrace(events)
				for _, r := range []*obs.Registry{replayed, reg} {
					got := Costs{
						Rounds:    int(counterValue(t, r, "nebula_fed_rounds_total", "")),
						BytesUp:   int64(counterValue(t, r, "nebula_fed_traffic_bytes_total", `dir="up"`)),
						BytesDown: int64(counterValue(t, r, "nebula_fed_traffic_bytes_total", `dir="down"`)),
						SimTime:   counterValue(t, r, "nebula_fed_sim_seconds_total", ""),
					}
					if got != costs {
						t.Fatalf("after %s: Costs %+v, registry (replayed, live)[%v] %+v", after, costs, r == reg, got)
					}
				}
			}
			for step := 0; step < 4; step++ {
				if row.churn && step == 2 {
					fleet = all[1:]
				}
				nb.Adapt(rng, fleet)
				agree("Adapt")
				nb.LocalAccuracy(all)
				agree("LocalAccuracy")
			}
			if !bytes.Contains(log.Bytes(), []byte(`"note":"bootstrap"`)) {
				t.Fatal("no device was bootstrapped outside a round — the evaluate rows prove nothing")
			}
			if costs := nb.Costs(); costs.Rounds != 4 || costs.SimTime == 0 {
				t.Fatalf("run accounted %+v, want 4 rounds of simulated time", costs)
			}
		})
	}
}
