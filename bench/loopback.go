package main

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/data"
	"repro/internal/edgenet"
	"repro/internal/fed"
	"repro/internal/modular"
	"repro/internal/obs"
	"repro/internal/obs/span"
	"repro/internal/tensor"
)

// loopback_rpc: a real edgenet.Server on 127.0.0.1 and persistent device
// clients exchanging sub-models with it in a closed loop. No training
// kernels run: a seeded perturbation of the fetched backbone stands in for
// local training, so the transport, the server and the dense-delta codec
// carry all the time.

const (
	loopAggregateEvery = 16
	loopWarmup         = 200
)

// loopDevice is one device identity: a persistent client plus the importance
// scores and budget it asks for, all fixed at set-up.
type loopDevice struct {
	cl     *edgenet.EdgeClient
	imp    [][]float64
	budget modular.Budget
	weight float64
	noise  *tensor.RNG
}

// loopDriver is one closed-loop driver goroutine and the identities it
// cycles through. Each device waits for its reply, hence closed loop.
type loopDriver struct {
	devs []*loopDevice
	next int
}

type loopInstance struct {
	cfg     runConfig
	task    *fed.Task
	proxy   *data.Dataset
	local   *data.Dataset
	srv     *edgenet.Server
	drivers []*loopDriver

	exchanges int // acked exchanges so far, warm-up included
	closed    bool

	fetchMs, pushMs []float64 // per-exchange RPC latencies of the last phase
}

func setupLoopback(cfg runConfig) (instance, error) {
	task := fed.Image100Task(cloudSeed+30, fed.ScaleQuick)
	rng := tensor.NewRNG(cloudSeed + 40)
	model := task.BuildModular(rng)
	proxy := data.MakeBalancedDataset(rng, task.Gen, data.DefaultEnv(), cfg.pick(8, 2))
	tc := modular.DefaultTrainConfig()
	tc.Epochs = 1
	tc.GroupSize = task.GroupSize
	model.TrainEndToEnd(rng, proxy, tc)

	srv := edgenet.NewServer(model, loopAggregateEvery)
	// Attached before the server starts so handlers never race the field;
	// requests outside a traced exchange carry trace id 0 and record nothing.
	srv.Spans = cfg.Rec
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	li := &loopInstance{cfg: cfg, task: task, proxy: proxy, srv: srv}

	nDev, nDrv := cfg.pick(64, 6), cfg.workers()
	for d := 0; d < nDrv; d++ {
		li.drivers = append(li.drivers, &loopDriver{})
	}
	for id := 0; id < nDev; id++ {
		drv := li.drivers[id%nDrv]
		// Every edge builds the same skeleton from the shared task seed.
		skeleton := task.BuildModular(tensor.NewRNG(cloudSeed + 40))
		cl, err := edgenet.Dial(addr, id, skeleton)
		if err != nil {
			li.close()
			return nil, err
		}
		dev := &loopDevice{cl: cl, noise: tensor.NewRNG(cfg.Seed + 1000 + int64(id))}
		drv.devs = append(drv.devs, dev)
		if err := cl.Hello(); err != nil {
			li.close()
			return nil, err
		}
		drng := tensor.NewRNG(cfg.Seed + 2000 + int64(id))
		start := drng.Intn(task.Classes)
		classes := make([]int, 4)
		for j := range classes {
			classes[j] = (start + j) % task.Classes
		}
		dd := data.NewDeviceData(drng, task.Gen, id, classes, data.RandomEnv(drng), 48)
		if li.local == nil {
			li.local = dd.Train
		}
		x, _ := dd.Train.All()
		dev.imp = skeleton.Importance(x)
		// Budgets span 0.15–0.7 of the module pool on top of stem and head,
		// the range examples/testbed hands its device classes.
		dev.budget = poolBudget(model, 0.15+0.55*drng.Float64())
		dev.weight = float64(dd.Train.Len())
	}
	if _, err := li.run(budget{ops: cfg.pick(loopWarmup, 12)}, nil); err != nil {
		li.close()
		return nil, err
	}
	return li, nil
}

// exchange is one operation: fetch the personalized sub-model, perturb it,
// push it back. It returns the fetch and push RPC milliseconds.
func (d *loopDevice) exchange(rec *span.Recorder, key int64) (fetchMs, pushMs float64, err error) {
	tid, _ := rec.Trace(key)
	root := rec.Start(tid, 0, "bench.exchange")
	root.SetDevice(d.cl.DeviceID)
	defer root.End()

	// The client's own RPC spans parent under these two, so their self time
	// is what the client does around the wire: decode and instantiate after a
	// fetch, flatten and encode before a push.
	fs := rec.Start(tid, root.ID(), "client.fetch")
	d.cl.SetTraceContext(tid, fs.ID())
	sw := obs.StartTimer()
	sub, err := d.cl.FetchSubModel(d.imp, d.budget)
	fetchMs = 1e3 * sw.Seconds()
	fs.End()
	if err != nil {
		return 0, 0, err
	}

	ps := rec.Start(tid, root.ID(), "bench.perturb")
	vec := sub.BackboneVector()
	for i := range vec {
		vec[i] += float32(0.01 * (d.noise.Float64() - 0.5))
	}
	sub.LoadBackboneVector(vec)
	ps.End()

	pus := rec.Start(tid, root.ID(), "client.push")
	d.cl.SetTraceContext(tid, pus.ID())
	sw = obs.StartTimer()
	err = d.cl.PushUpdate(sub, d.imp, d.weight)
	pushMs = 1e3 * sw.Seconds()
	pus.End()
	return fetchMs, pushMs, err
}

// run drives every lane until the budget is spent. A fixed operation count
// is split evenly over the drivers.
func (li *loopInstance) run(b budget, rec *span.Recorder) (phase, error) {
	type laneResult struct {
		fetch, push []float64
		failed      int
		err         error
	}
	res := make([]laneResult, len(li.drivers))
	for _, drv := range li.drivers {
		for _, d := range drv.devs {
			d.cl.Spans = rec
		}
	}
	base := int64(li.exchanges)
	var wg sync.WaitGroup
	sw := obs.StartTimer()
	for di, drv := range li.drivers {
		lb := b
		if b.ops > 0 {
			lb.ops = b.ops / len(li.drivers)
			if di < b.ops%len(li.drivers) {
				lb.ops++
			}
			if lb.ops == 0 {
				continue
			}
		}
		wg.Add(1)
		go func(di int, drv *loopDriver, lb budget) {
			defer wg.Done()
			r := &res[di]
			for n := 0; !lb.spent(sw, n); n++ {
				dev := drv.devs[drv.next%len(drv.devs)]
				drv.next++
				// Keys are unique per exchange across lanes and phases.
				key := base + int64(n)*int64(len(li.drivers)) + int64(di) + 1
				f, p, err := dev.exchange(rec, key)
				if err != nil {
					r.failed++
					r.err = err
					continue
				}
				r.fetch = append(r.fetch, f)
				r.push = append(r.push, p)
			}
		}(di, drv, lb)
	}
	wg.Wait()
	ph := phase{wall: sw.Seconds(), lanes: len(li.drivers)}
	li.fetchMs, li.pushMs = nil, nil
	var firstErr error
	for i := range res {
		li.fetchMs = append(li.fetchMs, res[i].fetch...)
		li.pushMs = append(li.pushMs, res[i].push...)
		for j := range res[i].fetch {
			ph.opMs = append(ph.opMs, res[i].fetch[j]+res[i].push[j])
		}
		ph.failed += res[i].failed
		if firstErr == nil {
			firstErr = res[i].err
		}
	}
	li.exchanges += len(ph.opMs)
	ph.units = float64(len(ph.opMs))
	if ph.failed > 0 {
		return ph, fmt.Errorf("%d exchanges failed after retries, first: %w", ph.failed, firstErr)
	}
	return ph, nil
}

// finish shuts the transport down — the server folds a connection's byte
// counts in when the connection ends — and balances both sides' books.
func (li *loopInstance) finish(ts *traceSummary) (map[string]float64, error) {
	var statsUs float64
	if ts != nil {
		statsUs = li.probeStats()
	}
	var cliIn, cliOut, retries int64
	for _, drv := range li.drivers {
		for _, d := range drv.devs {
			in, out := d.cl.Traffic()
			cliIn, cliOut = cliIn+in, cliOut+out
			retries += d.cl.RetryStats().Retries
		}
	}
	li.close()
	st := li.srv.StatsSnapshot()
	switch {
	case st.UpdatesReceived != int64(li.exchanges):
		return nil, fmt.Errorf("server received %d updates for %d acked exchanges", st.UpdatesReceived, li.exchanges)
	case st.Aggregations != int64(li.exchanges/loopAggregateEvery):
		return nil, fmt.Errorf("server aggregated %d times for %d exchanges (every %d)", st.Aggregations, li.exchanges, loopAggregateEvery)
	case st.BytesIn != cliOut || st.BytesOut != cliIn:
		return nil, fmt.Errorf("byte ledger: server in/out %d/%d, clients out/in %d/%d", st.BytesIn, st.BytesOut, cliOut, cliIn)
	case st.Dedups != 0:
		return nil, fmt.Errorf("server deduplicated %d pushes from persistent clients with monotone Seq", st.Dedups)
	}
	for _, p := range li.srv.Model.Params() {
		if !allFinite(p.W.Data) {
			return nil, fmt.Errorf("server model parameter %q is not finite", p.Name)
		}
	}
	if ts == nil {
		return nil, nil
	}
	exchangeMs := make([]float64, len(li.fetchMs))
	for i := range exchangeMs {
		exchangeMs[i] = li.fetchMs[i] + li.pushMs[i]
	}
	n := float64(len(exchangeMs))
	if n == 0 {
		return nil, errors.New("traced phase completed no exchange")
	}
	d0 := li.drivers[0].devs[0]
	payload := li.srv.Model.Extract(li.srv.Model.Derive(d0.imp, d0.budget, false)).BackboneVector()
	vals := map[string]float64{
		"rpc.stats_us":               statsUs,
		"rpc.fetch_ms_p50":           median(li.fetchMs),
		"rpc.push_ms_p50":            median(li.pushMs),
		"rpc.client_fetch_self_ms":   1e3 * ts.selfByKind["client.fetch"] / n,
		"rpc.client_push_self_ms":    1e3 * ts.selfByKind["client.push"] / n,
		"rpc.framing_overhead_ratio": framingOverhead(payload),
		"rpc.srv_lock_wait_ms":       1e3 * ts.selfByKind["srv.lock_wait"] / n,
		"rpc.srv_derive_ms":          1e3 * ts.selfByKind["srv.derive"] / n,
		"rpc.srv_encode_ms":          1e3 * ts.selfByKind["srv.encode"] / n,
		"rpc.srv_aggregate_ms":       1e3 * ts.selfByKind["srv.aggregate"] / n,
		"rpc.retries":                float64(retries),
		"rpc.dedups":                 float64(st.Dedups),
		"rpc.needfull_bounces":       float64(st.WireFallbacks),
		"rpc.wire_fallbacks":         float64(edgenet.ClientWireFallbacks()),
		"wire.bytes_per_update":      float64(st.BytesIn+st.BytesOut) / float64(li.exchanges),
	}
	if p, ok := supportedTail(len(exchangeMs), 99); ok {
		vals["rpc.exchange_ms_p99"] = percentile(exchangeMs, p)
	}
	return vals, nil
}

// probeStats times an empty round trip — the framing floor of the transport —
// over the first device's live connection, in microseconds.
func (li *loopInstance) probeStats() float64 {
	cl := li.drivers[0].devs[0].cl
	cl.SetTraceContext(0, 0)
	var us []float64
	for i := 0; i < 200; i++ {
		sw := obs.StartTimer()
		if _, err := cl.Stats(); err != nil {
			return 0
		}
		us = append(us, 1e6*sw.Seconds())
	}
	return median(us)
}

func (li *loopInstance) probeInputs() probeInputs {
	return probeInputs{task: li.task, model: li.srv.Model, local: li.local, proxy: li.proxy, seed: li.cfg.Seed}
}

// close ends every client connection and stops the server, waiting for its
// handlers.
func (li *loopInstance) close() {
	if li.closed {
		return
	}
	li.closed = true
	for _, drv := range li.drivers {
		for _, d := range drv.devs {
			if d.cl != nil {
				_ = d.cl.Close() // teardown; the byte ledger check catches a lost frame
			}
		}
	}
	li.srv.Close()
}
