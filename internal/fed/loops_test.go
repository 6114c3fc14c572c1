package fed

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/data"
	"repro/internal/modular"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// The device-side step used to be written three times and evaluation twice.
// The copies below are those loops as they stood, kept the way norm_test.go
// keeps closureBatchNorm: as the oracle TrainLayer and EvalLayer must match
// bit for bit.

func legacyTrainLayer(rng *tensor.RNG, m nn.Layer, ds *data.Dataset, epochs int, lr float32, batch int) {
	if ds.Len() == 0 {
		return
	}
	opt := nn.NewSGD(lr, 0.9, 1e-4)
	params := m.Params()
	for e := 0; e < epochs; e++ {
		ds.Batches(rng, batch, func(x *tensor.Tensor, y []int) {
			logits := m.Forward(x, true)
			_, grad := nn.SoftmaxCrossEntropy(logits, y)
			m.Backward(grad)
			nn.ClipGradNorm(params, 5)
			opt.Step(params)
		})
	}
}

func legacyTrainLayerProx(rng *tensor.RNG, m nn.Layer, anchor []float32, mu float32, ds *data.Dataset, epochs int, lr float32, batch int) {
	if ds.Len() == 0 {
		return
	}
	opt := nn.NewSGD(lr, 0.9, 1e-4)
	params := m.Params()
	for e := 0; e < epochs; e++ {
		ds.Batches(rng, batch, func(x *tensor.Tensor, y []int) {
			logits := m.Forward(x, true)
			_, grad := nn.SoftmaxCrossEntropy(logits, y)
			m.Backward(grad)
			if mu > 0 {
				off := 0
				for _, p := range params {
					for i := range p.W.Data {
						p.G.Data[i] += mu * (p.W.Data[i] - anchor[off+i])
					}
					off += p.W.Len()
				}
			}
			nn.ClipGradNorm(params, 5)
			opt.Step(params)
		})
	}
}

func legacyTrainSubModel(rng *tensor.RNG, s *modular.SubModel, ds *data.Dataset, epochs int, lr float32, batch int) {
	if ds.Len() == 0 {
		return
	}
	opt := nn.NewSGD(lr, 0.9, 1e-4)
	params := s.Params()
	nn.EnsureGrads(params)
	for e := 0; e < epochs; e++ {
		ds.Batches(rng, batch, func(x *tensor.Tensor, y []int) {
			logits := s.Forward(x, true)
			_, grad := nn.SoftmaxCrossEntropy(logits, y)
			s.Backward(grad)
			nn.ClipGradNorm(params, 5)
			opt.Step(params)
		})
	}
}

func legacyEvalSubModel(s *modular.SubModel, ds *data.Dataset) float64 {
	if ds.Len() == 0 {
		return 0
	}
	correct := 0
	const chunk = 128
	for start := 0; start < ds.Len(); start += chunk {
		end := start + chunk
		if end > ds.Len() {
			end = ds.Len()
		}
		idx := make([]int, 0, end-start)
		for i := start; i < end; i++ {
			idx = append(idx, i)
		}
		x, y := ds.Batch(idx)
		logits := s.Forward(x, false)
		for b := range y {
			if logits.ArgMaxRow(b) == y[b] {
				correct++
			}
		}
	}
	return float64(correct) / float64(ds.Len())
}

// layerBits is a plain model as bits: parameters, then layer states.
func layerBits(m nn.Layer) []uint32 {
	vec := nn.FlattenVector(m.Params(), nn.LayerStates(m))
	out := make([]uint32, len(vec))
	for i, x := range vec {
		out[i] = math.Float32bits(x)
	}
	return out
}

// TestTrainLayerMatchesLegacyLoops: two epochs through the one surviving loop
// leave exactly the parameters the loop it replaced left — for a dense and a
// conv model, a fresh and a released sub-model, and FedProx's proximal step —
// and EvalLayer scores a sub-model exactly as the sub-model evaluation loop
// did.
func TestTrainLayerMatchesLegacyLoops(t *testing.T) {
	const (
		epochs = 2
		lr     = 0.02
		batch  = 16
		seed   = 61
	)
	har, img := HARTask(62, ScaleQuick), Image10Task(63, ScaleQuick)
	harData := harFleet(tensor.NewRNG(64), har, 1, 3)[0].Dev
	imgData := harFleetImage(tensor.NewRNG(64), img, 1)[0].Dev

	for _, tc := range []struct {
		name string
		task *Task
		ds   *data.Dataset
	}{{"dense", har, harData.Train}, {"conv", img, imgData.Train}} {
		base := tc.task.BuildFull(tensor.NewRNG(65), 1.0)
		start := layerBits(base)
		got, want := nn.CloneLayer(base), nn.CloneLayer(base)
		TrainLayer(tensor.NewRNG(seed), got, tc.ds, epochs, lr, batch, nil)
		legacyTrainLayer(tensor.NewRNG(seed), want, tc.ds, epochs, lr, batch)
		if !reflect.DeepEqual(layerBits(got), layerBits(want)) {
			t.Errorf("%s: TrainLayer diverges from the loop it replaced", tc.name)
		}
		if reflect.DeepEqual(layerBits(got), start) {
			t.Errorf("%s: training moved nothing — the comparison proves nothing", tc.name)
		}

		// FedProx: the hook FedAvg passes against the loop that had the term inline.
		anchor := nn.FlattenVector(base.Params(), nil)
		got, want = nn.CloneLayer(base), nn.CloneLayer(base)
		TrainLayer(tensor.NewRNG(seed), got, tc.ds, epochs, lr, batch, proxStep(anchor, 0.5))
		legacyTrainLayerProx(tensor.NewRNG(seed), want, anchor, 0.5, tc.ds, epochs, lr, batch)
		if !reflect.DeepEqual(layerBits(got), layerBits(want)) {
			t.Errorf("%s: TrainLayer + proxStep(0.5) diverges from the inline proximal loop", tc.name)
		}
		plain := nn.CloneLayer(base)
		legacyTrainLayer(tensor.NewRNG(seed), plain, tc.ds, epochs, lr, batch)
		if reflect.DeepEqual(layerBits(got), layerBits(plain)) {
			t.Errorf("%s: the proximal term changed nothing — the comparison proves nothing", tc.name)
		}
	}

	for _, tc := range []struct {
		name string
		task *Task
		dev  *data.DeviceData
	}{{"har", har, harData}, {"image10", img, imgData}} {
		model := tc.task.BuildModular(tensor.NewRNG(66))
		active := make([][]int, len(model.Layers))
		for l, layer := range model.Layers {
			for i := 0; i < layer.N(); i += 2 {
				active[l] = append(active[l], i)
			}
		}
		for _, released := range []bool{false, true} {
			got, want := model.Extract(active), model.Extract(active)
			if released {
				nn.ReleaseBuffers(got)
				nn.ReleaseBuffers(want)
			}
			TrainLayer(tensor.NewRNG(seed), got, tc.dev.Train, epochs, lr, batch, nil)
			legacyTrainSubModel(tensor.NewRNG(seed), want, tc.dev.Train, epochs, lr, batch)
			if !reflect.DeepEqual(subModelBits(got), subModelBits(want)) {
				t.Errorf("%s sub-model (released=%v): TrainLayer diverges from the sub-model loop", tc.name, released)
			}
			if reflect.DeepEqual(subModelBits(got), subModelBits(model.Extract(active))) {
				t.Errorf("%s sub-model (released=%v): training moved nothing", tc.name, released)
			}
			test := tc.dev.TestSet(150) // more than one evaluation chunk
			if a, b := EvalLayer(got, test), legacyEvalSubModel(want, test); a != b {
				t.Errorf("%s sub-model (released=%v): EvalLayer %v, the sub-model loop %v", tc.name, released, a, b)
			}
		}
	}
}
