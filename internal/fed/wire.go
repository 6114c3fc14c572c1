package fed

import (
	"repro/internal/edgenet"
	"repro/internal/modular"
	"repro/internal/tensor"
)

// Simulated wire-format v2 link (docs/PROTOCOL.md "Wire format v2").
//
// The fed round loop has no real network — it charges analytic byte counts.
// With Config.WireCompress on, those charges come from the same pure
// edgenet codec the live transport uses: each sub-model exchange is encoded
// (chunk-quantized, delta against the last exchange for this device),
// charged at its exact WireBytes(), and — crucially — the *reconstruction*
// is what flows onward, so quantization error shows up in accuracy, not
// just in the byte ledger. It is also the only vector-sized array a crossing
// leaves behind (docs/PERF.md "Ledger finding #5"): what is sent is flattened
// into a borrowed array, and what arrived is read where the codec put it —
// copied only into a sub-model of a new structure, which the device trains.
//
// Delta bookkeeping is the transport's own (edgenet.WireRef.Base decides
// full or delta, edgenet.Exchange yields what both ends hold next): both
// "ends" of the simulated link share one reference per device (the
// reconstruction of the last downlink), refs are snapshotted serially in
// prepRound, used read-only by the parallel workers, and committed back in
// canonical device order by commitDevice — so compressed runs keep the
// bitwise worker-count determinism contract of docs/PARALLEL.md.

// pullBlend refreshes a device that keeps its sub-model: the cloud's current
// parameters and states for the modules held holds are charged as one dense
// cloud→device transfer and blended into held; the device's new delta-coding
// reference is returned (nil on the exact link). The blend reads in place —
// the cloud model's own tensors on the exact link, windows of the new
// reference on the compressed one, so the device blends in what the wire
// delivered. Worker-safe: no one writes the cloud model in the parallel phase.
func (s *Nebula) pullBlend(held *modular.SubModel, ref *edgenet.WireRef) (int64, *edgenet.WireRef) {
	if !s.cfg.WireCompress {
		params, states := s.Model.Selection(held.Mapping)
		blendSubModels(held, params, states, s.PullBlend)
		return held.BackboneBytes(), nil
	}
	bytes, ref := cross(held, func(dst []float32) []float32 {
		return s.Model.AppendBackboneVector(dst, held.Mapping)
	}, ref, edgenet.WireOpts{})
	pulled, err := s.Model.SubModelOver(held.Mapping, ref.Vec)
	if err != nil {
		panic(err) // held was extracted from this model
	}
	blendSubModels(held, pulled.Params(), pulled.AllStates(), s.PullBlend)
	return bytes, ref
}

// cross carries one backbone vector of sub's structure over the simulated
// link — delta against ref when ref has that structure — and returns its exact
// wire size and what the far end then holds: the reconstruction, under its own
// copy of the mapping (a reference is immutable; sub's mapping is an exported
// slice its holder may edit). flatten appends the vector to an array borrowed for as long
// as the codec reads it. Pure; safe from parallel workers.
func cross(sub *modular.SubModel, flatten func([]float32) []float32, ref *edgenet.WireRef, opts edgenet.WireOpts) (int64, *edgenet.WireRef) {
	base := ref.Base(sub.Mapping)
	n := len(base) // as long as the vector; without one, count
	if base == nil {
		n = int(sub.BackboneBytes() / 4)
	}
	buf := tensor.GetScratch(n)
	defer tensor.PutScratch(buf)
	vec := flatten(buf.Data[:0])
	far := &edgenet.WireRef{Vec: make([]float32, len(vec))}
	p := edgenet.Exchange(vec, base, opts, far.Vec)
	for _, idx := range sub.Mapping {
		far.Mapping = append(far.Mapping, append([]int(nil), idx...))
	}
	return p.WireBytes(), far
}

// wireDownlink simulates sending sub, just extracted for a new structure,
// from cloud to device: encode (delta against ref when the structure
// matches), charge the exact wire size, and copy the lossy reconstruction into
// sub — the device receives, and goes on to train, what the wire delivered,
// not the cloud's float32 originals. Returns the byte charge and the new
// shared reference.
func wireDownlink(sub *modular.SubModel, ref *edgenet.WireRef, opts edgenet.WireOpts) (int64, *edgenet.WireRef) {
	bytes, ref := cross(sub, sub.AppendBackboneVector, ref, opts)
	sub.LoadBackboneVector(ref.Vec)
	return bytes, ref
}

// wireUplink simulates pushing a trained sub-model from device to cloud:
// encode the trained backbone (delta + top-k against the downlink
// reference), charge the exact wire size, and return what the cloud holds
// afterwards — a weights-only view of the reconstruction, which is all
// aggregation reads — while the device keeps its full-precision local
// weights. Reads sub only, so this stays worker-safe.
func wireUplink(sub *modular.SubModel, ref *edgenet.WireRef, opts edgenet.WireOpts) (int64, *modular.SubModel) {
	bytes, far := cross(sub, sub.AppendBackboneVector, ref, opts)
	return bytes, sub.WithBackbone(far.Vec)
}
