package fed

import "repro/internal/tensor"

// This file is the round executor: the bounded fan-out every strategy uses to
// run per-device work (derive / train / evaluate) concurrently without giving
// up bitwise reproducibility. The contract has three phases:
//
//  1. Coordinator prep (serial). Every draw from the round's master RNG —
//     client sampling, dropout rolls, fault pre-draws, and one Split() per
//     sampled device — happens on the coordinator in canonical device order,
//     BEFORE any worker starts. The master stream's state therefore never
//     depends on how the parallel phase interleaves. Shared mutable state
//     (strategy maps, fault counters) is read or updated here only.
//
//  2. Parallel phase. Workers of tensor's one pool execute one device at a
//     time (tensor.ParallelForWorkers, bounded by Config.Workers). A worker
//     body may touch: its device's derived RNG stream, its device's Client
//     (Monitor/DeviceData own per-device streams), read-only shared models,
//     and its own slot in a per-device result array — nothing else, apart
//     from write-only obs spans. Outputs (updates, cost deltas, the link
//     faults met) go into the device's slot; workers write no trace events.
//
//  3. Canonical reduce (serial). The coordinator folds the result array in
//     device index order: cost accumulation, map writes, aggregation input
//     order, slot maxima, and every trace event (fault notes included) happen
//     in the same order a serial loop would have produced, so artifacts are
//     identical for any worker count, including 1. See docs/PARALLEL.md.

// serve is the fan-out of a strategy that keeps one model per device: it runs
// work(i, m) for every client on tensor's pool, where m is the client's model
// in held or, for a client held has none for, one that fresh(w, c) builds on
// worker w, in [0, tensor.WorkerCount(workers, len(clients))) — so fresh may
// use what the caller keeps per worker. held is read here, on the
// coordinator; isFresh tells the caller which models to adopt, which it does
// in device order.
func serve[M comparable](workers int, clients []*Client, held map[int]M, fresh func(w int, c *Client) M, work func(i int, m M)) (ms []M, isFresh []bool) {
	var none M
	ms = make([]M, len(clients))
	isFresh = make([]bool, len(clients))
	for i, c := range clients {
		ms[i] = held[c.Dev.ID]
		isFresh[i] = ms[i] == none
	}
	tensor.ParallelForWorkers(workers, len(clients), func(w, i int) {
		if isFresh[i] {
			ms[i] = fresh(w, clients[i])
		}
		work(i, ms[i])
	})
	return ms, isFresh
}

// splitStreams derives one RNG stream per device from the master stream, in
// canonical device order. Every device gets a stream whether or not it will
// participate, so the master stream advances by a fixed amount per round
// regardless of dropout and fault outcomes. keep is the caller's last round
// of streams, which nothing draws from any more, or nil for a caller that
// keeps none: its generators are re-seeded in place (tensor.RNG.SplitInto),
// so a round allocates only the streams it has more of.
func splitStreams(rng *tensor.RNG, keep []*tensor.RNG, n int) []*tensor.RNG {
	keep = append(keep[:cap(keep)], make([]*tensor.RNG, max(0, n-cap(keep)))...)[:n]
	for i := range keep {
		keep[i] = rng.SplitInto(keep[i])
	}
	return keep
}
