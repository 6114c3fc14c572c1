package modular

import (
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func smallCfg() Config {
	return Config{
		ModulesPerLayer: 4,
		TopK:            2,
		EmbedDim:        16,
		ResidualModules: true,
		MinShrink:       0.25,
		MaxShrink:       0.5,
	}
}

func TestModularMLPForwardShape(t *testing.T) {
	rng := tensor.NewRNG(1)
	m := NewModularMLP(rng, 10, 24, 6, smallCfg())
	x := tensor.New(5, 10)
	rng.FillNormal(x, 0, 1)
	y := m.Forward(x, nil, false)
	if y.Dim(0) != 5 || y.Dim(1) != 6 {
		t.Fatalf("output shape %v", y.Shape())
	}
	if y.HasNaN() {
		t.Fatal("NaN in forward")
	}
}

func TestModularCNNForwardShape(t *testing.T) {
	rng := tensor.NewRNG(2)
	m := NewModularCNN(rng, 3, 8, 8, []ConvStage{{OutC: 8, Stride: 1}, {OutC: 16, Stride: 2}}, 10, smallCfg())
	x := tensor.New(3, 3, 8, 8)
	rng.FillNormal(x, 0, 1)
	y := m.Forward(x, nil, false)
	if y.Dim(0) != 3 || y.Dim(1) != 10 {
		t.Fatalf("output shape %v", y.Shape())
	}
}

func TestModuleLayerTopKRouting(t *testing.T) {
	rng := tensor.NewRNG(3)
	m := NewModularMLP(rng, 6, 12, 3, smallCfg())
	x := tensor.New(4, 6)
	rng.FillNormal(x, 0, 1)
	m.Forward(x, nil, false)
	layer := m.Layers[0]
	idx, gates := layer.SelGates()
	for b := range idx {
		if len(idx[b]) != m.TopK {
			t.Fatalf("sample %d activated %d modules, want %d", b, len(idx[b]), m.TopK)
		}
		var sum float32
		for _, g := range gates[b] {
			if g < 0 {
				t.Fatal("negative gate")
			}
			sum += g
		}
		if math.Abs(float64(sum)-1) > 1e-5 {
			t.Fatalf("gates sum to %v", sum)
		}
	}
}

func TestModuleLayerActiveRestriction(t *testing.T) {
	rng := tensor.NewRNG(4)
	m := NewModularMLP(rng, 6, 12, 3, smallCfg())
	x := tensor.New(4, 6)
	rng.FillNormal(x, 0, 1)
	m.Forward(x, [][]int{{1, 2}}, false)
	idx, _ := m.Layers[0].SelGates()
	for b := range idx {
		for _, i := range idx[b] {
			if i != 1 && i != 2 {
				t.Fatalf("sample %d routed to inactive module %d", b, i)
			}
		}
	}
}

func TestModelGradients(t *testing.T) {
	// Dense gating (TopK = N, no noise) keeps the loss smooth so finite
	// differences apply to the whole model including the selector.
	rng := tensor.NewRNG(5)
	cfg := smallCfg()
	cfg.TopK = 4
	m := NewModularMLP(rng, 6, 10, 3, cfg)
	m.Selector.NoiseStd = 0
	x := tensor.New(3, 6)
	rng.FillNormal(x, 0, 1)
	r := tensor.New(3, 3)
	rng.FillNormal(r, 0, 1)

	loss := func() float64 {
		y := m.Forward(x, nil, true)
		var s float64
		for i, v := range y.Data {
			s += float64(v) * float64(r.Data[i])
		}
		return s
	}
	params := m.Params()
	nn.ZeroGrads(params)
	m.Forward(x, nil, true)
	m.Backward(r.Clone(), 0)

	const eps = 1e-3
	checked := 0
	for _, p := range params {
		step := p.W.Len()/3 + 1
		for i := 0; i < p.W.Len(); i += step {
			orig := p.W.Data[i]
			p.W.Data[i] = orig + eps
			lp := loss()
			p.W.Data[i] = orig - eps
			lm := loss()
			p.W.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			ana := float64(p.G.Data[i])
			scale := math.Max(1, math.Max(math.Abs(num), math.Abs(ana)))
			if math.Abs(num-ana)/scale > 5e-2 {
				t.Errorf("%s[%d]: analytic %.5f vs numeric %.5f", p.Name, i, ana, num)
			}
			checked++
		}
	}
	if checked < 20 {
		t.Fatalf("too few gradient checks: %d", checked)
	}
}

func TestLoadBalanceLossGradient(t *testing.T) {
	rng := tensor.NewRNG(6)
	probs := tensor.New(5, 4)
	for b := 0; b < 5; b++ {
		logits := make([]float32, 4)
		for i := range logits {
			logits[i] = float32(rng.NormFloat64())
		}
		tensor.Softmax(probs.Row(b), logits)
	}
	dp := tensor.New(5, 4)
	base := LoadBalanceLoss(probs, dp, 1)
	if base < 0 {
		t.Fatalf("CV² must be ≥ 0, got %v", base)
	}
	const eps = 1e-4
	for i := 0; i < probs.Len(); i += 3 {
		orig := probs.Data[i]
		probs.Data[i] = orig + eps
		lp := LoadBalanceLoss(probs, tensor.New(5, 4), 1)
		probs.Data[i] = orig - eps
		lm := LoadBalanceLoss(probs, tensor.New(5, 4), 1)
		probs.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-float64(dp.Data[i])) > 1e-3*math.Max(1, math.Abs(num)) {
			t.Fatalf("LB grad[%d]: analytic %v vs numeric %v", i, dp.Data[i], num)
		}
	}
}

func TestLoadBalanceLossZeroWhenUniform(t *testing.T) {
	probs := tensor.New(8, 4)
	probs.Fill(0.25)
	dp := tensor.New(8, 4)
	if l := LoadBalanceLoss(probs, dp, 1); math.Abs(l) > 1e-9 {
		t.Fatalf("uniform usage should give 0 CV², got %v", l)
	}
}

func TestGateGradToProbGradNumeric(t *testing.T) {
	// Verify the renormalization chain rule on a single sample.
	p := []float32{0.1, 0.5, 0.3, 0.1}
	sel := []int{1, 2}
	gateGrad := []float32{0, 0.7, -0.4, 0}
	probs := tensor.FromSlice(append([]float32(nil), p...), 1, 4)
	s := p[1] + p[2]
	gates := []float32{p[1] / s, p[2] / s}
	dp := GateGradToProbGrad([][]float32{gateGrad}, [][]int{sel}, [][]float32{gates}, probs)

	lossOf := func(pv []float32) float64 {
		ss := pv[1] + pv[2]
		g1, g2 := pv[1]/ss, pv[2]/ss
		return float64(gateGrad[1])*float64(g1) + float64(gateGrad[2])*float64(g2)
	}
	const eps = 1e-4
	for i := 0; i < 4; i++ {
		pv := append([]float32(nil), p...)
		pv[i] += eps
		lp := lossOf(pv)
		pv[i] -= 2 * eps
		lm := lossOf(pv)
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-float64(dp.Data[i])) > 1e-3 {
			t.Fatalf("dp[%d]: analytic %v vs numeric %v", i, dp.Data[i], num)
		}
	}
}

func TestEndToEndTrainingLearns(t *testing.T) {
	rng := tensor.NewRNG(7)
	gen := data.NewSynthHAR(11)
	train := data.MakeBalancedDataset(rng, gen, data.DefaultEnv(), 40)
	test := data.MakeBalancedDataset(rng, gen, data.DefaultEnv(), 15)
	cfg := smallCfg()
	m := NewModularMLP(rng, 64, 32, 6, cfg)
	tc := DefaultTrainConfig()
	tc.Epochs = 6
	losses := m.TrainEndToEnd(rng, train, tc)
	if len(losses) != 6 {
		t.Fatalf("expected 6 epoch losses, got %d", len(losses))
	}
	if losses[len(losses)-1] >= losses[0] {
		t.Fatalf("loss did not decrease: %v", losses)
	}
	x, y := test.All()
	acc := nn.Accuracy(m.Forward(x, nil, false), y)
	if acc < 0.7 {
		t.Fatalf("modular MLP accuracy %.3f too low", acc)
	}
}

func TestSubTaskMatrixRowsNormalized(t *testing.T) {
	rng := tensor.NewRNG(8)
	gen := data.NewSynthHAR(12)
	ds := data.MakeBalancedDataset(rng, gen, data.DefaultEnv(), 20)
	m := NewModularMLP(rng, 64, 24, 6, smallCfg())
	h := m.SubTaskMatrix(ds, 2)
	if len(h) != 1 {
		t.Fatalf("expected 1 layer, got %d", len(h))
	}
	if len(h[0]) != 3 {
		t.Fatalf("expected 3 sub-tasks, got %d", len(h[0]))
	}
	for ti, row := range h[0] {
		var sum float64
		for _, v := range row {
			if v < 0 {
				t.Fatal("negative load")
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-4 {
			t.Fatalf("sub-task %d loads sum to %v (mean of softmax rows must be 1)", ti, sum)
		}
	}
}

func TestAbilityEnhanceConcentratesSelector(t *testing.T) {
	rng := tensor.NewRNG(9)
	gen := data.NewSynthHAR(13)
	ds := data.MakeBalancedDataset(rng, gen, data.DefaultEnv(), 40)
	m := NewModularMLP(rng, 64, 32, 6, smallCfg())
	tc := DefaultTrainConfig()
	tc.Epochs = 3
	m.TrainEndToEnd(rng, ds, tc)
	masks := m.AbilityEnhance(rng, ds, tc)
	if len(masks) != 1 || len(masks[0]) != 3 {
		t.Fatalf("mask shape wrong: %d layers", len(masks))
	}
	// After fine-tuning, the selector mass on assigned modules should
	// dominate for each sub-task.
	h := m.SubTaskMatrix(ds, tc.GroupSize)
	for ti := range h[0] {
		var onMask, offMask float64
		for n, v := range h[0][ti] {
			if masks[0][ti][n] {
				onMask += v
			} else {
				offMask += v
			}
		}
		if onMask < offMask {
			t.Fatalf("sub-task %d: mass on assigned modules %.3f < off %.3f", ti, onMask, offMask)
		}
	}
}

func TestDeriveRespectsBudgetAndLayers(t *testing.T) {
	rng := tensor.NewRNG(10)
	m := NewModularMLP(rng, 20, 32, 6, Config{ModulesPerLayer: 8, TopK: 2, EmbedDim: 16, MinShrink: 0.25, MaxShrink: 0.5})
	imp := m.Importance(randBatch(rng, 10, 20))
	stem, head, _ := m.ModuleCosts()
	fixedBytes := float64(stem.Bytes + head.Bytes)

	tight := Budget{CommBytes: fixedBytes + 3000, FwdFLOPs: 1e12, MemElems: 1e12}
	loose := Budget{CommBytes: fixedBytes + 1e9, FwdFLOPs: 1e12, MemElems: 1e12}
	selTight := m.Derive(imp, tight, false)
	selLoose := m.Derive(imp, loose, false)
	if len(selTight[0]) == 0 {
		t.Fatal("every layer must keep at least one module")
	}
	if len(selLoose[0]) <= len(selTight[0]) {
		t.Fatalf("loose budget selected no more modules (%d) than tight (%d)", len(selLoose[0]), len(selTight[0]))
	}
	if len(selLoose[0]) != 8 {
		t.Fatalf("unbounded budget should select all modules, got %d", len(selLoose[0]))
	}
	// Cost accounting consistent with selection.
	bytes, _, _ := m.SelectionCost(selTight)
	if float64(bytes) > tight.CommBytes+float64(maxModuleBytes(m)) {
		t.Fatalf("selection cost %d far exceeds budget %v", bytes, tight.CommBytes)
	}
}

func maxModuleBytes(m *Model) int64 {
	_, _, mods := m.ModuleCosts()
	var mx int64
	for _, layer := range mods {
		for _, c := range layer {
			if c.Bytes > mx {
				mx = c.Bytes
			}
		}
	}
	return mx
}

func TestDeriveMaxModulesCap(t *testing.T) {
	rng := tensor.NewRNG(11)
	m := NewModularMLP(rng, 20, 32, 6, Config{ModulesPerLayer: 8, TopK: 2, EmbedDim: 16, MinShrink: 0.25, MaxShrink: 0.5})
	imp := m.Importance(randBatch(rng, 10, 20))
	sel := m.Derive(imp, Budget{CommBytes: 1e12, FwdFLOPs: 1e12, MemElems: 1e12, MaxModules: 3}, false)
	total := 0
	for _, l := range sel {
		total += len(l)
	}
	if total > 3 {
		t.Fatalf("cap violated: %d modules", total)
	}
}

func randBatch(rng *tensor.RNG, b, n int) *tensor.Tensor {
	x := tensor.New(b, n)
	rng.FillNormal(x, 0, 1)
	return x
}

func TestExtractSubModelMatchesRestrictedForward(t *testing.T) {
	rng := tensor.NewRNG(12)
	cfg := smallCfg()
	m := NewModularMLP(rng, 10, 16, 4, cfg)
	m.Selector.NoiseStd = 0
	active := [][]int{{0, 2}}
	sub := m.Extract(active)
	x := randBatch(rng, 6, 10)
	full := m.Forward(x, active, false)
	compact := sub.Forward(x, false)
	for i := range full.Data {
		if math.Abs(float64(full.Data[i]-compact.Data[i])) > 1e-5 {
			t.Fatalf("sub-model forward diverges at %d: %v vs %v", i, full.Data[i], compact.Data[i])
		}
	}
}

func TestSubModelTrainingDoesNotTouchCloud(t *testing.T) {
	rng := tensor.NewRNG(13)
	m := NewModularMLP(rng, 10, 16, 4, smallCfg())
	before := nn.FlattenVector(m.Params(), nil)
	sub := m.Extract([][]int{{1, 3}})
	opt := nn.NewSGD(0.1, 0, 0)
	for i := 0; i < 5; i++ {
		x := randBatch(rng, 8, 10)
		y := make([]int, 8)
		for j := range y {
			y[j] = rng.Intn(4)
		}
		logits := sub.Forward(x, true)
		_, grad := nn.SoftmaxCrossEntropy(logits, y)
		sub.Backward(grad)
		opt.Step(sub.Params())
	}
	after := nn.FlattenVector(m.Params(), nil)
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("training a sub-model mutated the cloud model")
		}
	}
}

func TestSubModelParamBytesSmallerThanFull(t *testing.T) {
	rng := tensor.NewRNG(14)
	m := NewModularMLP(rng, 20, 32, 6, Config{ModulesPerLayer: 8, TopK: 2, EmbedDim: 16, MinShrink: 0.25, MaxShrink: 0.5})
	subSmall := m.Extract([][]int{{0}})
	subAll := m.Extract([][]int{{0, 1, 2, 3, 4, 5, 6, 7}})
	if subSmall.ParamBytes() >= subAll.ParamBytes() {
		t.Fatal("fewer modules must mean fewer bytes")
	}
	if subSmall.NumModules() != 1 || subAll.NumModules() != 8 {
		t.Fatal("NumModules wrong")
	}
}

func TestAggregateSingleUpdateReplacesModule(t *testing.T) {
	rng := tensor.NewRNG(15)
	m := NewModularMLP(rng, 10, 16, 4, smallCfg())
	sub := m.Extract([][]int{{1}})
	// Mutate the sub-model's module weights.
	for _, p := range sub.Layers[0].Modules[0].Params() {
		p.W.Fill(0.123)
	}
	untouched := nn.FlattenVector(m.Layers[0].Modules[2].Params(), nil)
	imp := make([][]float64, 1)
	imp[0] = []float64{0.1, 0.6, 0.2, 0.1}
	m.AggregateModuleWiseRetain([]*Update{{Sub: sub, Importance: imp, Weight: 100}}, 0)
	for _, p := range m.Layers[0].Modules[1].Params() {
		for _, v := range p.W.Data {
			if v != 0.123 {
				t.Fatalf("module 1 not replaced: %v", v)
			}
		}
	}
	after := nn.FlattenVector(m.Layers[0].Modules[2].Params(), nil)
	for i := range untouched {
		if untouched[i] != after[i] {
			t.Fatal("module 2 changed despite not being in any sub-model")
		}
	}
}

func TestAggregateWeightsByImportance(t *testing.T) {
	rng := tensor.NewRNG(16)
	m := NewModularMLP(rng, 10, 16, 4, smallCfg())
	subA := m.Extract([][]int{{0}})
	subB := m.Extract([][]int{{0}})
	for _, p := range subA.Layers[0].Modules[0].Params() {
		p.W.Fill(1)
	}
	for _, p := range subB.Layers[0].Modules[0].Params() {
		p.W.Fill(3)
	}
	impA := [][]float64{{0.75, 0, 0, 0}}
	impB := [][]float64{{0.25, 0, 0, 0}}
	m.AggregateModuleWiseRetain([]*Update{
		{Sub: subA, Importance: impA, Weight: 1},
		{Sub: subB, Importance: impB, Weight: 1},
	}, 0)
	// Weighted: 0.75·1 + 0.25·3 = 1.5.
	for _, p := range m.Layers[0].Modules[0].Params() {
		for _, v := range p.W.Data {
			if math.Abs(float64(v)-1.5) > 1e-5 {
				t.Fatalf("importance-weighted average wrong: %v", v)
			}
		}
	}
}

func TestDropModuleShrinksSubModel(t *testing.T) {
	rng := tensor.NewRNG(17)
	m := NewModularMLP(rng, 10, 16, 4, smallCfg())
	sub := m.Extract([][]int{{0, 1, 2}})
	probe := randBatch(rng, 4, 10)
	if !sub.DropModule(probe) {
		t.Fatal("DropModule failed with 3 modules")
	}
	if sub.NumModules() != 2 {
		t.Fatalf("NumModules = %d after drop", sub.NumModules())
	}
	// Forward still works.
	y := sub.Forward(probe, false)
	if y.HasNaN() {
		t.Fatal("NaN after module drop")
	}
	sub.DropModule(probe)
	if sub.DropModule(probe) {
		t.Fatal("must not drop the last module of a layer")
	}
}

func TestImportanceMatchesSelector(t *testing.T) {
	rng := tensor.NewRNG(18)
	m := NewModularMLP(rng, 10, 16, 4, smallCfg())
	x := randBatch(rng, 20, 10)
	imp := m.Importance(x)
	if len(imp) != 1 || len(imp[0]) != 4 {
		t.Fatalf("importance shape wrong")
	}
	var sum float64
	for _, v := range imp[0] {
		if v < 0 || v > 1 {
			t.Fatalf("importance %v out of [0,1]", v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-4 {
		t.Fatalf("importance sums to %v", sum)
	}
}

func TestModuleCostsPositiveAndOrdered(t *testing.T) {
	rng := tensor.NewRNG(19)
	m := NewModularMLP(rng, 10, 32, 4, Config{ModulesPerLayer: 4, TopK: 2, EmbedDim: 16, ResidualModules: true, MinShrink: 0.125, MaxShrink: 0.5})
	_, _, mods := m.ModuleCosts()
	// Shrink fractions grow with module index, so costs must too (the last
	// module is the identity bypass with zero params).
	for i := 0; i+2 < len(mods[0]); i++ {
		if mods[0][i].Bytes > mods[0][i+1].Bytes {
			t.Fatalf("module costs not ordered: %d then %d", mods[0][i].Bytes, mods[0][i+1].Bytes)
		}
	}
	last := mods[0][len(mods[0])-1]
	if last.Params != 0 {
		t.Fatalf("identity bypass should have 0 params, has %d", last.Params)
	}
}
