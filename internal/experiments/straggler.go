package experiments

import (
	"fmt"
	"io"

	"repro/internal/data"
	"repro/internal/fed"
	"repro/internal/metrics"
	"repro/internal/tensor"
)

// StragglerResult compares bulk-synchronous and staleness-aware semi-async
// rounds (docs/ASYNC.md) on the same seeded dynamic environment: pinned
// straggler devices, seeded churn, concept drift, contention bursts.
type StragglerResult struct {
	Table *metrics.Table

	SyncMean, AsyncMean       float64 // mean accuracy over adaptation steps
	SyncFinal, AsyncFinal     float64
	SyncLatency, AsyncLatency float64 // sim seconds per round
	SyncCosts, AsyncCosts     fed.Costs
	Deadline                  float64 // calibrated/configured async deadline
	Pending                   int     // stragglers still in flight at the end
	// AccEpsilon is the accuracy tolerance the gate allows the async run to
	// trail the sync run by ("equal-or-better" up to noise).
	AccEpsilon float64
}

// Pass reports the semi-async gate verdict: strictly lower per-round latency
// at equal-or-better (within AccEpsilon) accuracy.
func (r *StragglerResult) Pass() bool {
	return r.AsyncLatency < r.SyncLatency && r.AsyncMean >= r.SyncMean-r.AccEpsilon
}

// FprintGate writes the deterministic machine-checkable verdict line ci.sh
// greps for.
func (r *StragglerResult) FprintGate(w io.Writer) {
	verdict := "FAIL"
	if r.Pass() {
		verdict = "PASS"
	}
	fmt.Fprintf(w, "straggler-gate: %s (round latency async %s vs sync %s; mean acc async %.4f vs sync %.4f, eps %.2f)\n",
		verdict, metrics.FmtDur(r.AsyncLatency), metrics.FmtDur(r.SyncLatency), r.AsyncMean, r.SyncMean, r.AccEpsilon)
}

// RunStraggler measures the straggler stall (beyond the paper): Nebula's
// continuous adaptation on the HAR task over a dynamic fleet with pinned
// slow devices and seeded churn, once with bulk-synchronous rounds — where
// every round waits for the slowest device — and once with deadline-paced
// semi-async rounds that aggregate what arrived and carry straggler work
// forward with staleness-decayed weight. Both runs see bitwise-identical
// environments (same seeds throughout); the comparison isolates the round
// engine.
func RunStraggler(opt Options) *StragglerResult {
	task := fed.HARTask(opt.Seed+30, opt.Scale)
	churn := DefaultChurn()
	churn.Stragglers = opt.Stragglers

	run := func(async bool, label string) (*metrics.Series, fed.Costs, *fed.Nebula) {
		cfg := continualConfig(opt)
		cfg.Async = async
		rng := tensor.NewRNG(opt.Seed + 40)
		proxy := data.MakeBalancedDataset(rng, task.Gen, data.DefaultEnv(), opt.ProxyPerClass)
		nb := fed.NewNebula(task, cfg)
		nb.TrainCfg.Epochs = opt.PretrainEpochs
		nb.Faults = opt.faultModel()
		if async {
			// Only the async run logs, so one -trace file holds one coherent
			// semi-async log (the mode the differential gates exercise).
			// The span recorder rides the same run for the same reason.
			nb.Trace = opt.Trace
			nb.Spans = opt.Spans
		}
		nb.Pretrain(tensor.NewRNG(opt.Seed+60), proxy)
		// A bigger pool than the other runners: churn needs headroom, and the
		// pinned stragglers must stay a minority of the healthy fleet.
		fleet := NewDynamicFleet(tensor.NewRNG(opt.Seed+50), task, max(opt.Devices/2, 8), shiftFrac, churn)
		acc := &metrics.Series{}
		adaptSteps(opt, nb, acc, "straggler "+label, func() []*fed.Client {
			fleet.Step()
			return fleet.Active()
		})
		return acc, nb.Costs(), nb
	}

	syncAcc, syncCosts, _ := run(false, "sync")
	asyncAcc, asyncCosts, asyncNb := run(true, "async")

	res := &StragglerResult{
		SyncMean: syncAcc.Mean(), AsyncMean: asyncAcc.Mean(),
		SyncFinal: syncAcc.Last(), AsyncFinal: asyncAcc.Last(),
		SyncCosts: syncCosts, AsyncCosts: asyncCosts,
		Deadline:   asyncNb.AsyncDeadline(),
		Pending:    asyncNb.PendingStragglers(),
		AccEpsilon: 0.03,
	}
	if syncCosts.Rounds > 0 {
		res.SyncLatency = syncCosts.SimTime / float64(syncCosts.Rounds)
	}
	if asyncCosts.Rounds > 0 {
		res.AsyncLatency = asyncCosts.SimTime / float64(asyncCosts.Rounds)
	}

	tb := metrics.NewTable("Straggler stall — bulk-sync vs staleness-aware semi-async rounds ("+task.Name+", dynamic fleet)",
		"mode", "mean acc", "final acc", "round latency", "sim time", "bytes down", "bytes up")
	tb.AddRow("bulk-sync", f2(100*res.SyncMean), f2(100*res.SyncFinal),
		metrics.FmtDur(res.SyncLatency), metrics.FmtDur(syncCosts.SimTime),
		metrics.FmtBytes(syncCosts.BytesDown), metrics.FmtBytes(syncCosts.BytesUp))
	tb.AddRow("semi-async", f2(100*res.AsyncMean), f2(100*res.AsyncFinal),
		metrics.FmtDur(res.AsyncLatency), metrics.FmtDur(asyncCosts.SimTime),
		metrics.FmtBytes(asyncCosts.BytesDown), metrics.FmtBytes(asyncCosts.BytesUp))
	res.Table = tb
	return res
}
