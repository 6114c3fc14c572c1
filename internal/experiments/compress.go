package experiments

import (
	"bytes"
	"fmt"
	"io"

	"repro/internal/data"
	"repro/internal/fed"
	"repro/internal/metrics"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// CompressResult compares Nebula's adaptation with exact float32 sub-model
// exchanges against the same run over the simulated wire-format v2 codec
// (docs/PROTOCOL.md "Wire format v2"): quantized, delta-encoded, top-k
// sparsified transfers charged at their exact encoded size.
type CompressResult struct {
	Table *metrics.Table

	CleanAcc, CompAcc     float64 // mean local accuracy after adaptation
	CleanCosts, CompCosts fed.Costs
	Ratio                 float64 // clean bytes / compressed bytes
	// AccEpsilon is the accuracy drop the gate tolerates: compression trades
	// bounded quantization error for bandwidth, not model quality.
	AccEpsilon float64
	// CountersExact records that each run's Costs ledger equalled
	// trace.Summarize over its own JSONL log, byte for byte — the codec's
	// charges flow through one bookkeeping path, with no drift.
	CountersExact bool
}

// Pass reports the compression gate verdict: at least 2× less traffic, the
// accuracy within AccEpsilon of the clean run, and exact cost/trace agreement.
func (r *CompressResult) Pass() bool {
	return r.Ratio >= 2 && r.CompAcc >= r.CleanAcc-r.AccEpsilon && r.CountersExact
}

// FprintGate writes the deterministic machine-checkable verdict line ci.sh
// greps for.
func (r *CompressResult) FprintGate(w io.Writer) {
	verdict := "FAIL"
	if r.Pass() {
		verdict = "PASS"
	}
	counters := "exact"
	if !r.CountersExact {
		counters = "DRIFTED"
	}
	fmt.Fprintf(w, "compress-gate: %s (traffic %s vs %s, ratio %.1fx; acc compressed %.4f vs clean %.4f, eps %.2f; counters %s)\n",
		verdict, metrics.FmtBytes(r.CompCosts.Total()), metrics.FmtBytes(r.CleanCosts.Total()),
		r.Ratio, r.CompAcc, r.CleanAcc, r.AccEpsilon, counters)
}

// RunCompress measures the wire-format v2 payoff (beyond the paper): one
// Nebula adaptation on the HAR task run twice from identical seeds — once
// with exact float32 transfers, once through the v2 codec (int8 chunks,
// delta against each device's previous exchange, top-k sparsified uplinks).
// Every byte charged is the exact encoded wire size, and the devices train
// on the lossy reconstructions, so the accuracy column prices the
// compression honestly.
func RunCompress(opt Options) *CompressResult {
	task := fed.HARTask(opt.Seed+70, opt.Scale)

	run := func(compress bool, label string) (acc float64, costs fed.Costs, exact bool) {
		fcfg := opt.Config
		fcfg.WireCompress = compress
		if compress && fcfg.WireTopK == 0 {
			fcfg.WireTopK = 0.25
		}
		rng := tensor.NewRNG(opt.Seed + 80)
		proxy := data.MakeBalancedDataset(rng, task.Gen, data.DefaultEnv(), opt.ProxyPerClass)
		nb := fed.NewNebula(task, fcfg)
		nb.TrainCfg.Epochs = opt.PretrainEpochs
		nb.Faults = opt.faultModel()
		// Each run logs to its own buffer so the gate can cross-check the
		// Costs ledger against trace.Summarize — the counters-exact clause.
		var log bytes.Buffer
		nb.Trace = trace.New(&log)
		nb.Pretrain(tensor.NewRNG(opt.Seed+90), proxy)
		fleet := data.NewFleet(tensor.NewRNG(opt.Seed+110), task.Gen, data.PartitionConfig{
			NumDevices: opt.Devices, ClassesPerDevice: 2,
			MinVolume: 30, MaxVolume: 90, FeatureSkew: true,
		})
		clients := fed.NewClients(tensor.NewRNG(opt.Seed+100), fleet)
		nb.Adapt(tensor.NewRNG(opt.Seed+120), clients)
		// The experiment prices the adaptation: a device first served by the
		// evaluation below downloads its sub-model whole on either wire, which
		// says nothing about the codec.
		costs = nb.Costs()
		acc = nb.LocalAccuracy(clients)
		// Counters exact: the ledger and its own log agree over the whole run,
		// the evaluation's bootstrap downloads included.
		if events, err := trace.Read(bytes.NewReader(log.Bytes())); err == nil {
			exact = trace.Summarize(events) == nb.Costs()
		}
		opt.logf("compress %s: acc %.4f, %s down, %s up", label, acc,
			metrics.FmtBytes(costs.BytesDown), metrics.FmtBytes(costs.BytesUp))
		return acc, costs, exact
	}

	cleanAcc, cleanCosts, cleanExact := run(false, "clean")
	compAcc, compCosts, compExact := run(true, "wire-v2")

	res := &CompressResult{
		CleanAcc: cleanAcc, CompAcc: compAcc,
		CleanCosts: cleanCosts, CompCosts: compCosts,
		AccEpsilon:    0.03,
		CountersExact: cleanExact && compExact,
	}
	if compCosts.Total() > 0 {
		res.Ratio = float64(cleanCosts.Total()) / float64(compCosts.Total())
	}

	tb := metrics.NewTable("Wire-format v2 — exact vs compressed sub-model exchange ("+task.Name+")",
		"wire", "mean acc", "bytes down", "bytes up", "total", "sim time")
	tb.AddRow("float32 (v1)", f2(100*cleanAcc),
		metrics.FmtBytes(cleanCosts.BytesDown), metrics.FmtBytes(cleanCosts.BytesUp),
		metrics.FmtBytes(cleanCosts.Total()), metrics.FmtDur(cleanCosts.SimTime))
	tb.AddRow("v2 delta+topk", f2(100*compAcc),
		metrics.FmtBytes(compCosts.BytesDown), metrics.FmtBytes(compCosts.BytesUp),
		metrics.FmtBytes(compCosts.Total()), metrics.FmtDur(compCosts.SimTime))
	res.Table = tb
	return res
}
