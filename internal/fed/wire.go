package fed

import (
	"repro/internal/edgenet"
	"repro/internal/modular"
	"repro/internal/nn"
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
// Delta bookkeeping is the transport's own: the downlink is the server's
// edgenet.WireRef.Send, the uplink the client's Encoder.Exchange against
// WireRef.Base. Both "ends" of the simulated link share one reference per
// device (the reconstruction of the last downlink), refs are snapshotted
// serially in prepRound, used read-only by the parallel workers, and committed
// back in canonical device order by commitDevice — so compressed runs keep
// the bitwise worker-count determinism contract of docs/PARALLEL.md.
//
// Each reconstruction has one owner, which hands it back to the arena
// (PROTOCOL.md § Vectors; commitDevice, land, applyChurn).

// pullBlend refreshes a device that keeps its sub-model: the cloud's current
// parameters and states for the modules held holds are charged as one dense
// cloud→device transfer and blended into held, whose backbone bb lists; the
// device's new delta-coding reference is returned (nil on the exact link).
// The blend reads in place — the cloud model's own tensors on the exact link,
// the new reference on the compressed one, so the device blends in what the
// wire delivered. Worker-safe: no one writes the cloud model in the parallel
// phase.
func (s *Nebula) pullBlend(enc *edgenet.Encoder, held *modular.SubModel, bb modular.Backbone, ref *edgenet.WireRef) (int64, *edgenet.WireRef) {
	params, states := s.Model.Selection(held.Mapping)
	if !s.cfg.WireCompress {
		blendSubModels(held, bb.Params, inTensors(params, states), s.PullBlend)
		return bb.Bytes(), nil
	}
	bytes, next := cross(enc, held, bb, func(dst []float32) []float32 {
		return s.Model.AppendBackboneVector(dst, held.Mapping)
	}, ref)
	// The vector holds the parameters in order, then the stem's and the head's
	// states; module states, which it does not carry, are the cloud model's.
	vec := next.Vec
	stem, head := len(nn.LayerStates(held.Stem)), len(nn.LayerStates(held.Head))
	blendSubModels(held, bb.Params, func(k, n int) []float32 {
		if j := k - len(params); j >= stem && j < len(states)-head {
			return states[j].Data
		}
		w := vec[:n]
		vec = vec[n:]
		return w
	}, s.PullBlend)
	if len(vec) != 0 {
		panic("fed: pulled vector is longer than the held sub-model") // held was extracted from this model
	}
	return bytes, next
}

// cross carries one backbone vector of sub's structure (backbone bb) down the
// simulated link in enc — delta against ref when ref has that structure — and
// returns its exact wire size and the reference both ends then hold
// (edgenet.WireRef.Send), which the caller owns. flatten appends the vector
// to an array borrowed for as long as the codec reads it. Safe from parallel
// workers, each with its own enc.
func cross(enc *edgenet.Encoder, sub *modular.SubModel, bb modular.Backbone, flatten func([]float32) []float32, ref *edgenet.WireRef) (int64, *edgenet.WireRef) {
	buf := tensor.GetScratch(int(bb.Bytes() / 4))
	defer tensor.PutScratch(buf)
	p, next := ref.Send(enc, flatten(buf.Data[:0]), sub.Mapping, 0)
	return p.WireBytes(), next
}

// wireDownlink simulates sending sub (backbone bb), just extracted for a new
// structure, from cloud to device: encode (delta against ref when the
// structure matches), charge the exact wire size, and copy the lossy
// reconstruction into sub — the device receives, and goes on to train, what
// the wire delivered, not the cloud's float32 originals. Returns the byte
// charge and the new shared reference.
func wireDownlink(enc *edgenet.Encoder, sub *modular.SubModel, bb modular.Backbone, ref *edgenet.WireRef) (int64, *edgenet.WireRef) {
	bytes, next := cross(enc, sub, bb, bb.AppendVector, ref)
	bb.LoadVector(next.Vec)
	return bytes, next
}

// wireUplink simulates pushing a trained sub-model (backbone bb) from device
// to cloud: encode the trained backbone (delta + top-k against the downlink
// reference), charge the exact wire size, and return what the cloud holds
// afterwards — a weights-only view of the reconstruction, which is all
// aggregation reads — and the arena array under it, which the caller
// releases once aggregation has read the view. The device keeps its
// full-precision local weights. Reads sub only, so this stays worker-safe.
func wireUplink(enc *edgenet.Encoder, sub *modular.SubModel, bb modular.Backbone, ref *edgenet.WireRef, opts edgenet.WireOpts) (int64, *modular.SubModel, *tensor.Tensor) {
	buf := tensor.GetScratch(int(bb.Bytes() / 4))
	defer tensor.PutScratch(buf)
	vec := bb.AppendVector(buf.Data[:0])
	far := tensor.Borrow(len(vec))
	bytes := enc.Exchange(vec, ref.Base(sub.Mapping), opts, far.Data).WireBytes()
	return bytes, sub.WithBackbone(far.Data), far
}
