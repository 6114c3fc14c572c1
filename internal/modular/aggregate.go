package modular

import (
	"repro/internal/nn"
)

// Update is one device's contribution to module-wise aggregation: its
// locally trained sub-model, the device's module importance (full-width, as
// computed at derivation time or refreshed on upload), and an aggregation
// weight (its sample count).
type Update struct {
	Sub        *SubModel
	Importance [][]float64
	Weight     float64
	// ClassWeights optionally carries per-class local sample counts. When
	// present, the final classifier layer is aggregated row-wise with these
	// weights, so a device only influences the output rows of classes it
	// actually observed — the classifier-level analogue of module-wise
	// aggregation (label-skewed devices otherwise drag unseen-class rows
	// toward stale values).
	ClassWeights []int
}

// AggregateModuleWise integrates updated sub-models into the cloud model
// (Section 5.2):
//
//   - Module parameters: ω_i ← Σ_k norm-importance_k(i)·ω_i^k over the
//     sub-models U_i that contain module i. Modules not present in any
//     sub-model keep their parameters. Importance weighting balances
//     contributions of devices that updated the module a different number of
//     times or with different amounts of relevant data.
//   - Stem and head (carried by every sub-model): weighted average by
//     sample-count Weight, the FedAvg rule.
//
// retain ∈ [0,1) blends the previous cloud parameters into every aggregated
// tensor (new = retain·old + (1−retain)·avg). A handful of sub-models, each
// fine-tuned on a narrow local task, would otherwise overwrite broadly
// trained weights each round; retention keeps the cloud model a running
// average over rounds, matching the paper's 500-device regime where each
// module's weighted average spans many devices.
func (m *Model) AggregateModuleWise(updates []*Update) {
	m.AggregateModuleWiseRetain(updates, DefaultRetain)
}

// DefaultRetain is the cloud-side retention used by AggregateModuleWise.
const DefaultRetain = 0.5

// AggregateModuleWiseRetain is AggregateModuleWise with an explicit
// retention factor.
func (m *Model) AggregateModuleWiseRetain(updates []*Update, retain float64) {
	if len(updates) == 0 {
		return
	}
	if retain < 0 {
		retain = 0
	}
	if retain >= 1 {
		retain = 0.99
	}
	// Module-wise weighted average.
	for l := range m.Layers {
		for i := range m.Layers[l].Modules {
			var contrib []*SubModel
			var weights []float64
			var compactIdx []int
			for _, u := range updates {
				if l >= len(u.Sub.Mapping) {
					continue
				}
				for j, orig := range u.Sub.Mapping[l] {
					if orig == i {
						contrib = append(contrib, u.Sub)
						w := u.Importance[l][i]
						if w <= 0 {
							w = 1e-9
						}
						weights = append(weights, w)
						compactIdx = append(compactIdx, j)
					}
				}
			}
			if len(contrib) == 0 {
				continue
			}
			var total float64
			for _, w := range weights {
				total += w
			}
			target := m.Layers[l].Modules[i].Params()
			scaleParams(target, float32(retain))
			for k, sub := range contrib {
				w := float32((1 - retain) * weights[k] / total)
				src := sub.Layers[l].Modules[compactIdx[k]].Params()
				for pi := range target {
					target[pi].W.AddScaled(w, src[pi].W)
				}
			}
		}
	}
	// Stem and head: FedAvg by sample weight (parameters and running
	// statistics), uniform when no update carries any weight.
	var totalW float64
	for _, u := range updates {
		totalW += u.Weight
	}
	ws := make([]float32, len(updates))
	for k, u := range updates {
		if totalW > 0 {
			ws[k] = float32((1 - retain) * u.Weight / totalW)
		} else {
			ws[k] = float32((1 - retain) / float64(len(updates)))
		}
	}
	averageLayer(m.Stem, updates, ws, retain, func(u *Update) nn.Layer { return u.Sub.Stem })
	averageLayer(m.Head, updates, ws, retain, func(u *Update) nn.Layer { return u.Sub.Head })
	// Re-aggregate the final classifier row-wise when class weights are
	// available (averageLayer already filled it sample-weighted; this
	// overwrites the classifier with the conflict-free version).
	if anyClassWeights(updates) {
		aggregateClassifier(m.Head, updates, retain)
	}
}

func anyClassWeights(updates []*Update) bool {
	for _, u := range updates {
		if len(u.ClassWeights) > 0 {
			return true
		}
	}
	return false
}

// finalDense returns the last Dense layer reachable inside l, or nil.
func finalDense(l nn.Layer) *nn.Dense {
	switch v := l.(type) {
	case *nn.Dense:
		return v
	case *nn.Sequential:
		for i := len(v.Layers) - 1; i >= 0; i-- {
			if d := finalDense(v.Layers[i]); d != nil {
				return d
			}
		}
	}
	return nil
}

// aggregateClassifier averages each output row c of the final classifier
// over the updates, weighted by each device's class-c sample count; rows no
// device observed keep the sample-weighted average from averageLayer.
func aggregateClassifier(head nn.Layer, updates []*Update, retain float64) {
	target := finalDense(head)
	if target == nil {
		return
	}
	classes := target.Out
	in := target.In
	for c := 0; c < classes; c++ {
		var total float64
		for _, u := range updates {
			if c < len(u.ClassWeights) {
				total += float64(u.ClassWeights[c])
			}
		}
		if total <= 0 {
			continue
		}
		row := target.Weight.W.Data[c*in : (c+1)*in]
		for i := range row {
			row[i] *= float32(retain)
		}
		target.Bias.W.Data[c] *= float32(retain)
		for _, u := range updates {
			if c >= len(u.ClassWeights) || u.ClassWeights[c] <= 0 {
				continue
			}
			src := finalDense(u.Sub.Head)
			w := float32((1 - retain) * float64(u.ClassWeights[c]) / total)
			srow := src.Weight.W.Data[c*in : (c+1)*in]
			for i := range row {
				row[i] += float32(w * srow[i])
			}
			target.Bias.W.Data[c] += float32(w * src.Bias.W.Data[c])
		}
	}
}

// averageLayer blends target's parameters and states toward the average of
// the updates' corresponding layers: ws[k] is update k's share, (1−retain)
// times its normalized weight.
func averageLayer(target nn.Layer, updates []*Update, ws []float32, retain float64, pick func(*Update) nn.Layer) {
	tp := target.Params()
	ts := nn.LayerStates(target)
	scaleParams(tp, float32(retain))
	for _, s := range ts {
		s.Scale(float32(retain))
	}
	for k, u := range updates {
		w := ws[k]
		src := pick(u)
		sp := src.Params()
		for i := range tp {
			tp[i].W.AddScaled(w, sp[i].W)
		}
		ss := nn.LayerStates(src)
		for i := range ts {
			ts[i].AddScaled(w, ss[i])
		}
	}
}

func scaleParams(ps []*nn.Param, a float32) {
	for _, p := range ps {
		p.W.Scale(a)
	}
}
