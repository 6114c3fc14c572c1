package fed

import (
	"testing"
	"time"

	"repro/internal/edgenet"
	"repro/internal/tensor"
)

func TestFaultModelDeterministic(t *testing.T) {
	cfg := edgenet.FaultConfig{Seed: 11, Drop: 0.3, Delay: 5 * time.Millisecond, Reset: 0.1}
	run := func() ([]bool, []float64, FaultStats) {
		fm := NewFaultModel(cfg)
		var oks []bool
		var extras []float64
		for round := 1; round <= 6; round++ {
			for dev := 0; dev < 5; dev++ {
				ok, extra := fm.Fetch(round, dev)
				oks = append(oks, ok)
				extras = append(extras, extra)
				ok, extra = fm.Push(round, dev)
				oks = append(oks, ok)
				extras = append(extras, extra)
			}
		}
		return oks, extras, fm.Stats()
	}
	ok1, ex1, st1 := run()
	ok2, ex2, st2 := run()
	if st1 != st2 {
		t.Fatalf("stats diverged: %+v vs %+v", st1, st2)
	}
	for i := range ok1 {
		if ok1[i] != ok2[i] || ex1[i] != ex2[i] {
			t.Fatalf("outcome %d diverged", i)
		}
	}
	if st1.FetchFailures == 0 && st1.FetchRetries == 0 {
		t.Fatalf("30%%+10%% loss produced no fetch faults over 30 exchanges: %+v", st1)
	}
}

func TestFaultModelNilIsClean(t *testing.T) {
	var fm *FaultModel
	ok, extra := fm.Fetch(1, 0)
	if !ok || extra != 0 {
		t.Fatal("nil FaultModel must be a clean network")
	}
	ok, extra = fm.Push(1, 0)
	if !ok || extra != 0 {
		t.Fatal("nil FaultModel must be a clean network")
	}
	fm.NoteFallback() // must not panic
	fm.NoteSkip()
	if fm.Stats() != (FaultStats{}) {
		t.Fatal("nil FaultModel stats must be zero")
	}
}

// TestNebulaSurvivesLossyLink is the tentpole's simulation-side acceptance
// check: with an aggressive fault config every round still completes, devices
// degrade to cached sub-models or sit rounds out, and learning is not
// corrupted.
func TestNebulaSurvivesLossyLink(t *testing.T) {
	task := HARTask(7, ScaleQuick)
	rng := tensor.NewRNG(7)
	proxy := proxyFor(rng, task, 20)
	clients := harFleet(rng, task, 6, 2)

	nb := NewNebula(task, tinyCfg())
	nb.Faults = NewFaultModel(edgenet.FaultConfig{Seed: 7, Drop: 0.35, Delay: 10 * time.Millisecond, Reset: 0.1})
	nb.Pretrain(rng, proxy)
	nb.Adapt(rng, clients)
	nb.Adapt(rng, clients)

	acc := nb.LocalAccuracy(clients)
	if acc <= 0 {
		t.Fatalf("no learning under faults: acc %v", acc)
	}
	st := nb.Faults.Stats()
	if st.Fetches == 0 || st.Pushes == 0 {
		t.Fatalf("fault model never consulted: %+v", st)
	}
	if st.FetchRetries+st.PushRetries+st.FetchFailures+st.PushFailures == 0 {
		t.Fatalf("45%% per-attempt loss produced no faults: %+v", st)
	}
	c := nb.Costs()
	if c.SimTime <= 0 {
		t.Fatalf("fault delays not charged to sim time: %+v", c)
	}
}

// TestNebulaTotalLossSkipsEverything pins the degradation ladder's bottom
// rung: with every exchange lost, devices without a cached sub-model skip
// rounds entirely and no bytes move in either direction.
func TestNebulaTotalLossSkipsEverything(t *testing.T) {
	task := HARTask(8, ScaleQuick)
	rng := tensor.NewRNG(8)
	proxy := proxyFor(rng, task, 20)
	clients := harFleet(rng, task, 4, 2)

	nb := NewNebula(task, tinyCfg())
	nb.Faults = NewFaultModel(edgenet.FaultConfig{Seed: 8, Drop: 1})
	nb.Pretrain(rng, proxy)
	nb.Adapt(rng, clients)

	st := nb.Faults.Stats()
	if st.SkippedRounds == 0 {
		t.Fatalf("total loss but no skipped rounds: %+v", st)
	}
	if st.FetchFailures != st.Fetches {
		t.Fatalf("drop=1 but some fetches succeeded: %+v", st)
	}
	c := nb.Costs()
	if c.BytesDown != 0 || c.BytesUp != 0 {
		t.Fatalf("bytes moved over a fully dead link: %+v", c)
	}
}

// TestNebulaCleanRunUnchangedByNilFaults guards the determinism contract:
// wiring Faults=nil must leave an existing run byte-identical (same accuracy,
// same costs) to a run on a Nebula that never heard of faults.
func TestNebulaCleanRunUnchangedByNilFaults(t *testing.T) {
	run := func(withNilModel bool) (float64, Costs) {
		task := HARTask(9, ScaleQuick)
		rng := tensor.NewRNG(9)
		proxy := proxyFor(rng, task, 20)
		clients := harFleet(rng, task, 4, 2)
		nb := NewNebula(task, tinyCfg())
		if withNilModel {
			nb.Faults = nil // explicit: the degradation paths must be inert
		}
		nb.Pretrain(rng, proxy)
		nb.Adapt(rng, clients)
		return nb.LocalAccuracy(clients), nb.Costs()
	}
	accA, costA := run(false)
	accB, costB := run(true)
	if accA != accB || costA != costB {
		t.Fatalf("nil fault model changed a clean run: acc %v vs %v, costs %+v vs %+v",
			accA, accB, costA, costB)
	}
}

// TestFaultModelLostExchangeCharge: an exchange lost on every try costs each
// try's delay plus RetryPolicy's backoff before every retry — 0.05, 0.1 and
// 0.2 s for the default policy, bit for bit.
func TestFaultModelLostExchangeCharge(t *testing.T) {
	cfg := edgenet.FaultConfig{Seed: 5, Drop: 1, Delay: 30 * time.Millisecond}
	policy := edgenet.DefaultRetryPolicy()
	want := 0.0
	for a := 0; a < policy.MaxAttempts; a++ {
		want += cfg.Delay.Seconds()
		if a < policy.MaxAttempts-1 {
			want += policy.Backoff(a + 1).Seconds()
		}
	}
	for a, s := range []float64{0.05, 0.1, 0.2} {
		if got := policy.Backoff(a + 1).Seconds(); got != s {
			t.Fatalf("backoff before retry %d is %v s, want %v", a+1, got, s)
		}
	}
	fm := NewFaultModel(cfg)
	for _, op := range []func(round, dev int) (bool, float64){fm.Fetch, fm.Push} {
		ok, extra := op(3, 1)
		if ok || extra != want {
			t.Fatalf("lost exchange: ok=%v extra=%v s, want false and %v s", ok, extra, want)
		}
	}
	st := fm.Stats()
	if retries := int64(policy.MaxAttempts - 1); st.FetchRetries != retries || st.PushRetries != retries {
		t.Fatalf("stats %+v, want %d retries on each side", st, retries)
	}
}
