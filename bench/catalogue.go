package main

// The benchmark's contract: workload names and reasons, end-to-end metrics
// with unit, direction and regression bound, and per-layer metrics. The same
// lists are committed in ../BENCHMARK.json; TestCatalogueMatchesBenchmarkJSON
// keeps the two from drifting. bench/README.md documents how each value is
// computed and which end-to-end metric each layer metric should move.

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// setup builds a fresh instance of the workload from the seed.
	setup func(cfg runConfig) (instance, error)
}

// workloads, in the order the suite runs them. The "why" lines are the short
// form; README.md has the full parameter list and reasoning.
var workloads = []workloadDef{
	{
		Name:  "sim_cnn_sync",
		Why:   "Compute-bound: bulk-sync image10-resnet rounds where tensor/nn do ~99% of the work and wire codec and RPC do none; kernel changes must show here, codec changes must not.",
		setup: setupSimCNN,
	},
	{
		Name:  "sim_mlp_wire_async",
		Why:   "Coordination-bound: semi-async har-mlp rounds over a churning 48-device pool with top-k wire codec and link faults; codec, derive, aggregation and async bookkeeping carry the round, kernels do not.",
		setup: setupSimMLP,
	},
	{
		Name:  "loopback_rpc",
		Why:   "Only workload on the real transport: closed-loop fetch/push exchanges against edgenet.Server over 127.0.0.1 (gob framing, chunk streams, server lock, dense delta codec, arrival-order aggregation).",
		setup: setupLoopback,
	},
	{
		Name:  "offline_cloud",
		Why:   "Single-stream on-cloud stage (TrainEndToEnd + AbilityEnhance) on the same tensor/nn shapes as sim_cnn_sync but with routed full-model training; the plain single-worker baseline.",
		setup: setupOffline,
	},
}

// endToEnd lists what an operator of the system sees. Every metric is defined
// (and non-zero) on every workload; an "op" is one round on the sim
// workloads, one fetch+push exchange on loopback_rpc and one training cycle
// on offline_cloud. Bounds are the relative worsening of the median that
// counts as a regression. They are as wide as they are because of what the
// repeat runs measured on the shared 2-vCPU sandbox (README.md "Measured
// noise band"): every clock-derived metric moves 4–15 % between passes with
// the host's other tenants, so a tighter bound would reject changes for the
// weather.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_kb_per_op", Unit: "KiB", Better: "lower", Bound: 0.20},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
}

// perLayer lists the traced-pass metrics. A metric a workload has no such
// quantity for is reported as 0 there (README.md says which).
var perLayer = []metricDef{
	// The tail of the operation latency. It is here and not among the
	// end-to-end metrics because its spread over repeat runs went past a
	// tenth (up to 35 %), which the issue said to answer by moving it, not
	// by widening a bound.
	{Name: "op_ms_p90", Unit: "ms", Better: "lower"},
	// tensor: kernel probes on the shapes of cmd/nebula-bench.
	{Name: "tensor.gemm_gflops.128", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.gemm_gflops.64x256x576", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.conv_fwdbwd_ms.b16_c16x32_12x12", Unit: "ms", Better: "lower"},
	{Name: "tensor.conv_fwdbwd_ms.b16_c64x64_16x16", Unit: "ms", Better: "lower"},
	{Name: "tensor.kernel_mode", Unit: "code", Better: "higher"},
	// nn: one batch-16 training step of task.BuildFull, and the quantizers.
	{Name: "nn.fwd_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.bwd_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.opt_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.quantize8_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "nn.quantize_f16_mb_s", Unit: "MB/s", Better: "higher"},
	// data.
	{Name: "data.batch_us", Unit: "us", Better: "lower"},
	{Name: "data.fleet_build_ms", Unit: "ms", Better: "lower"},
	{Name: "data.fleet_step_ms", Unit: "ms", Better: "lower"},
	// modular.
	{Name: "modular.importance_us", Unit: "us", Better: "lower"},
	{Name: "modular.derive_us", Unit: "us", Better: "lower"},
	{Name: "modular.extract_us", Unit: "us", Better: "lower"},
	{Name: "modular.submodel_step_ms", Unit: "ms", Better: "lower"},
	{Name: "modular.aggregate_us_per_update", Unit: "us", Better: "lower"},
	{Name: "modular.train_e2e_ms_per_sample", Unit: "ms", Better: "lower"},
	{Name: "modular.ability_enhance_ms_per_sample", Unit: "ms", Better: "lower"},
	// solve.
	{Name: "solve.greedy_us", Unit: "us", Better: "lower"},
	{Name: "solve.bb_us", Unit: "us", Better: "lower"},
	{Name: "solve.assign_ms", Unit: "ms", Better: "lower"},
	// edgenet wire codec.
	{Name: "wire.encode_dense_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "wire.encode_delta_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "wire.encode_topk_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "wire.decode_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "wire.ratio_delta", Unit: "ratio", Better: "higher"},
	{Name: "wire.ratio_topk", Unit: "ratio", Better: "higher"},
	{Name: "wire.alloc_b_per_kb", Unit: "B/KB", Better: "lower"},
	{Name: "wire.bytes_per_update", Unit: "B", Better: "lower"},
	// edgenet RPC (loopback_rpc only).
	{Name: "rpc.stats_us", Unit: "us", Better: "lower"},
	{Name: "rpc.fetch_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "rpc.push_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "rpc.exchange_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "rpc.framing_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "rpc.client_fetch_self_ms", Unit: "ms", Better: "lower"},
	{Name: "rpc.client_push_self_ms", Unit: "ms", Better: "lower"},
	{Name: "rpc.srv_lock_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "rpc.srv_derive_ms", Unit: "ms", Better: "lower"},
	{Name: "rpc.srv_encode_ms", Unit: "ms", Better: "lower"},
	{Name: "rpc.srv_aggregate_ms", Unit: "ms", Better: "lower"},
	{Name: "rpc.retries", Unit: "count", Better: "lower"},
	{Name: "rpc.dedups", Unit: "count", Better: "lower"},
	{Name: "rpc.needfull_bounces", Unit: "count", Better: "lower"},
	{Name: "rpc.wire_fallbacks", Unit: "count", Better: "lower"},
	// fed round engine (sim workloads only).
	{Name: "fed.fetch_self_ms", Unit: "ms", Better: "lower"},
	{Name: "fed.train_self_ms", Unit: "ms", Better: "lower"},
	{Name: "fed.push_self_ms", Unit: "ms", Better: "lower"},
	{Name: "fed.prep_ms", Unit: "ms", Better: "lower"},
	{Name: "fed.parallel_ms", Unit: "ms", Better: "lower"},
	{Name: "fed.aggregate_ms", Unit: "ms", Better: "lower"},
	{Name: "fed.serial_share", Unit: "ratio", Better: "lower"},
	{Name: "fed.worker_idle_share", Unit: "ratio", Better: "lower"},
	{Name: "fed.late_updates", Unit: "count", Better: "lower"},
	{Name: "fed.lost_updates", Unit: "count", Better: "lower"},
	{Name: "fed.dropped_pending", Unit: "count", Better: "lower"},
	{Name: "fed.pending_peak", Unit: "count", Better: "lower"},
	{Name: "fed.sim_round_latency_ms", Unit: "ms", Better: "lower"},
	// quality of the result.
	{Name: "quality.final_acc", Unit: "ratio", Better: "higher"},
	{Name: "quality.failed_ops_ratio", Unit: "ratio", Better: "lower"},
	// Go runtime over the traced phase.
	{Name: "rt.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "rt.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "rt.allocs_per_op", Unit: "count", Better: "lower"},
	// the benchmark's own tracing.
	{Name: "trace.coverage", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.spans_dropped", Unit: "count", Better: "lower"},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
