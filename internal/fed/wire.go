package fed

import (
	"repro/internal/edgenet"
	"repro/internal/modular"
)

// Simulated wire-format v2 link (docs/PROTOCOL.md "Wire format v2").
//
// The fed round loop has no real network — it charges analytic byte counts.
// With Config.WireCompress on, those charges come from the same pure
// edgenet codec the live transport uses: each sub-model exchange is encoded
// (chunk-quantized, delta against the last exchange for this device),
// charged at its exact WireBytes(), and — crucially — the *reconstruction*
// is what flows onward, so quantization error shows up in accuracy, not
// just in the byte ledger.
//
// Delta bookkeeping is the transport's own (edgenet.WireRef.Base decides
// full or delta, edgenet.Exchange yields what both ends hold next): both
// "ends" of the simulated link share one reference per device (the
// reconstruction of the last downlink), refs are snapshotted serially in
// prepRound, used read-only by the parallel workers, and committed back in
// canonical device order by commitDevice — so compressed runs keep the
// bitwise worker-count determinism contract of docs/PARALLEL.md.

// downlink charges one cloud→device transfer of sub's backbone and returns
// the device's new delta-coding reference (nil on the exact link). Off
// WireCompress it is the analytic 4 B/element charge and sub arrives exact;
// on it, sub crosses the simulated v2 link — dense, because top-k never
// applies in this direction (a fresh structure has no base to be sparse
// against, and refreshes want every module parameter). Worker-safe.
func (s *Nebula) downlink(sub *modular.SubModel, ref *edgenet.WireRef) (int64, *edgenet.WireRef) {
	if !s.cfg.WireCompress {
		return sub.BackboneBytes(), nil
	}
	return wireDownlink(sub, ref, edgenet.WireOpts{F16: s.cfg.WireF16})
}

// wireUpOpts is the uplink codec config: the downlink's code width plus the
// configured top-k sparsification for delta pushes.
func (s *Nebula) wireUpOpts() edgenet.WireOpts {
	return edgenet.WireOpts{F16: s.cfg.WireF16, TopK: s.cfg.WireTopK}
}

// wireDownlink simulates sending sub from cloud to device: encode (delta
// against ref when the structure matches), charge the exact wire size, and
// load the lossy reconstruction into sub — the device receives what the
// wire delivered, not the cloud's float32 originals. Returns the byte
// charge and the new shared reference. Pure; safe from parallel workers.
func wireDownlink(sub *modular.SubModel, ref *edgenet.WireRef, opts edgenet.WireOpts) (int64, *edgenet.WireRef) {
	p, recon := edgenet.Exchange(sub.BackboneVector(), ref.Base(sub.Mapping), opts)
	sub.LoadBackboneVector(recon)
	return p.WireBytes(), &edgenet.WireRef{Mapping: sub.Mapping, Vec: recon}
}

// wireUplink simulates pushing a trained sub-model from device to cloud:
// encode the trained backbone (delta + top-k against the downlink
// reference), charge the exact wire size, and return what the cloud holds
// afterwards — a weights-only sub-model carrying the reconstruction, which is
// all aggregation reads — while the device keeps its full-precision local
// weights. Reads sub only, so this stays worker-safe.
func wireUplink(sub *modular.SubModel, ref *edgenet.WireRef, opts edgenet.WireOpts) (int64, *modular.SubModel) {
	p, recon := edgenet.Exchange(sub.BackboneVector(), ref.Base(sub.Mapping), opts)
	return p.WireBytes(), sub.WithBackbone(recon)
}
