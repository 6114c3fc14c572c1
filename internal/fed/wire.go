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
// just in the byte ledger. A crossing allocates no vector-sized array
// (docs/PERF.md "Ledger findings #5 and #9"): what is sent is flattened into
// a borrowed array and encoded in the worker's own Encoder, and what arrived
// lands in an array lent by the arena — copied only into a sub-model of a new
// structure, which the device trains.
//
// Delta bookkeeping is the transport's own (edgenet.WireRef.Base decides
// full or delta, Encoder.Exchange yields what both ends hold next): both
// "ends" of the simulated link share one reference per device (the
// reconstruction of the last downlink), refs are snapshotted serially in
// prepRound, used read-only by the parallel workers, and committed back in
// canonical device order by commitDevice — so compressed runs keep the
// bitwise worker-count determinism contract of docs/PARALLEL.md.
//
// Each reconstruction has one owner, which hands it back to the arena
// (PROTOCOL.md § Vectors; commitDevice, land, applyChurn).

// wireRef is a device's delta-coding reference on the simulated link: the
// transport's reference, over an array lent by the arena.
type wireRef struct {
	edgenet.WireRef
	buf *tensor.Tensor
}

// base is WireRef.Base on a reference that may be nil (none yet).
func (r *wireRef) base(mapping [][]int) []float32 {
	if r == nil {
		return nil
	}
	return r.Base(mapping)
}

// release hands the reference's array back to the arena (nil is a no-op);
// its owner must not read it afterwards.
func (r *wireRef) release() {
	if r != nil {
		tensor.Release(r.buf)
	}
}

// pullBlend refreshes a device that keeps its sub-model: the cloud's current
// parameters and states for the modules held holds are charged as one dense
// cloud→device transfer and blended into held; the device's new delta-coding
// reference is returned (nil on the exact link). The blend reads in place —
// the cloud model's own tensors on the exact link, windows of the new
// reference on the compressed one, so the device blends in what the wire
// delivered. Worker-safe: no one writes the cloud model in the parallel phase.
func (s *Nebula) pullBlend(enc *edgenet.Encoder, held *modular.SubModel, ref *wireRef) (int64, *wireRef) {
	if !s.cfg.WireCompress {
		params, states := s.Model.Selection(held.Mapping)
		blendSubModels(held, params, states, s.PullBlend)
		return held.BackboneBytes(), nil
	}
	bytes, far := cross(enc, held, func(dst []float32) []float32 {
		return s.Model.AppendBackboneVector(dst, held.Mapping)
	}, ref, edgenet.WireOpts{})
	pulled, err := s.Model.SubModelOver(held.Mapping, far.Data)
	if err != nil {
		panic(err) // held was extracted from this model
	}
	blendSubModels(held, pulled.Params(), pulled.AllStates(), s.PullBlend)
	return bytes, newWireRef(held.Mapping, far)
}

// cross carries one backbone vector of sub's structure over the simulated
// link in enc — delta against ref when ref has that structure — and returns
// its exact wire size and what the far end then holds: the reconstruction, in
// an array lent by the arena that the caller owns (Exchange writes every
// element). flatten appends the vector to an array borrowed for as long as the
// codec reads it. Safe from parallel workers, each with its own enc.
func cross(enc *edgenet.Encoder, sub *modular.SubModel, flatten func([]float32) []float32, ref *wireRef, opts edgenet.WireOpts) (int64, *tensor.Tensor) {
	base := ref.base(sub.Mapping)
	n := len(base) // as long as the vector; without one, count
	if base == nil {
		n = int(sub.BackboneBytes() / 4)
	}
	buf := tensor.GetScratch(n)
	defer tensor.PutScratch(buf)
	vec := flatten(buf.Data[:0])
	far := tensor.Borrow(len(vec))
	return enc.Exchange(vec, base, opts, far.Data).WireBytes(), far
}

// newWireRef makes the reconstruction far a reference for the structure
// mapping, under its own copy of the mapping: a reference is immutable, and a
// sub-model's mapping is an exported slice its holder may edit.
func newWireRef(mapping [][]int, far *tensor.Tensor) *wireRef {
	r := &wireRef{WireRef: edgenet.WireRef{Vec: far.Data}, buf: far}
	for _, idx := range mapping {
		r.Mapping = append(r.Mapping, append([]int(nil), idx...))
	}
	return r
}

// wireDownlink simulates sending sub, just extracted for a new structure,
// from cloud to device: encode (delta against ref when the structure
// matches), charge the exact wire size, and copy the lossy reconstruction into
// sub — the device receives, and goes on to train, what the wire delivered,
// not the cloud's float32 originals. Returns the byte charge and the new
// shared reference.
func wireDownlink(enc *edgenet.Encoder, sub *modular.SubModel, ref *wireRef, opts edgenet.WireOpts) (int64, *wireRef) {
	bytes, far := cross(enc, sub, sub.AppendBackboneVector, ref, opts)
	sub.LoadBackboneVector(far.Data)
	return bytes, newWireRef(sub.Mapping, far)
}

// wireUplink simulates pushing a trained sub-model from device to cloud:
// encode the trained backbone (delta + top-k against the downlink
// reference), charge the exact wire size, and return what the cloud holds
// afterwards — a weights-only view of the reconstruction, which is all
// aggregation reads — and the arena array under it, which the caller releases
// once aggregation has read the view. The device keeps its full-precision
// local weights. Reads sub only, so this stays worker-safe.
func wireUplink(enc *edgenet.Encoder, sub *modular.SubModel, ref *wireRef, opts edgenet.WireOpts) (int64, *modular.SubModel, *tensor.Tensor) {
	bytes, far := cross(enc, sub, sub.AppendBackboneVector, ref, opts)
	return bytes, sub.WithBackbone(far.Data), far
}
