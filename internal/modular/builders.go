package modular

import (
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Config controls modularization granularity.
type Config struct {
	// ModulesPerLayer is N(l), the paper's 16 (MLP/ResNet) or 32 (VGG/Res34).
	ModulesPerLayer int
	// TopK is the number of modules activated per layer per sample.
	TopK int
	// EmbedDim is the selector embedding width.
	EmbedDim int
	// ResidualModules inserts one parameter-free bypass module per layer
	// where shapes permit (the paper's residual module type).
	ResidualModules bool
	// MinShrink and MaxShrink bound the hidden-width fractions of shrunk
	// modules; module i's width interpolates between them, so the module set
	// spans a range of capacities and derived sub-models a range of sizes.
	MinShrink, MaxShrink float64
}

// DefaultConfig mirrors the paper's settings at simulation scale.
func DefaultConfig() Config {
	return Config{
		ModulesPerLayer: 16,
		TopK:            4,
		EmbedDim:        32,
		ResidualModules: true,
		MinShrink:       0.125,
		MaxShrink:       0.5,
	}
}

// shrinkFrac interpolates the hidden-width fraction for module i of n.
func (c Config) shrinkFrac(i, n int) float64 {
	if n <= 1 {
		return c.MaxShrink
	}
	t := float64(i) / float64(n-1)
	return c.MinShrink + float64(t*(c.MaxShrink-c.MinShrink))
}

// NewModularMLP modularizes an MLP (the paper's HAR setup: 1 module layer
// with 16 modules). Stem: Dense+ReLU to hidden; each module is a shrunk
// bottleneck Dense(hidden→mid)+ReLU+Dense(mid→hidden); head maps hidden to
// classes.
func NewModularMLP(rng *tensor.RNG, in, hidden, classes int, cfg Config) *Model {
	stem := nn.NewSequential(nn.NewDense(rng, in, hidden), nn.NewReLU())
	layer := NewModuleLayer()
	for i := 0; i < cfg.ModulesPerLayer; i++ {
		if cfg.ResidualModules && i == cfg.ModulesPerLayer-1 {
			layer.Modules = append(layer.Modules, nn.NewIdentity())
			continue
		}
		mid := int(float64(hidden) * cfg.shrinkFrac(i, cfg.ModulesPerLayer))
		if mid < 2 {
			mid = 2
		}
		layer.Modules = append(layer.Modules, nn.NewSequential(
			nn.NewDense(rng, hidden, mid),
			nn.NewReLU(),
			nn.NewDense(rng, mid, hidden),
		))
	}
	m := &Model{
		Stem:     stem,
		Layers:   []*ModuleLayer{layer},
		Head:     nn.NewSequential(nn.NewReLU(), nn.NewDense(rng, hidden, classes)),
		Selector: NewSelector(rng, in, cfg.EmbedDim, []int{layer.N()}),
		InShape:  []int{in},
		TopK:     cfg.TopK,
	}
	m.Validate()
	return m
}

// convModule builds a shrunk conv module: Conv(inC→mid)+ReLU+Conv(mid→outC),
// with the first conv carrying the stride (downsampling must be identical
// across a layer's modules so outputs align).
func convModule(rng *tensor.RNG, inC, outC, mid, stride int) nn.Layer {
	if mid < 2 {
		mid = 2
	}
	return nn.NewSequential(
		nn.NewConv2D(rng, inC, mid, 3, stride, 1),
		nn.NewReLU(),
		nn.NewConv2D(rng, mid, outC, 3, 1, 1),
	)
}

// bypassModule is the residual module for conv layers: a parameter-light
// 1×1 conv matching channel/stride changes (identity when shapes match).
func bypassModule(rng *tensor.RNG, inC, outC, stride int) nn.Layer {
	if inC == outC && stride == 1 {
		return nn.NewIdentity()
	}
	return nn.NewConv2D(rng, inC, outC, 1, stride, 0)
}

// ConvStage describes one module layer of a modular CNN.
type ConvStage struct {
	OutC   int
	Stride int
}

// NewModularCNN modularizes a CNN in the block-level scheme: a conv stem,
// one module layer per stage (each stage's modules map the stage input
// channels to its output channels, downsampling by Stride), and a global
// average pool + dense head. Covers the paper's ResNet18/34 and VGG16
// configurations at simulation scale.
func NewModularCNN(rng *tensor.RNG, inC, side, stemC int, stages []ConvStage, classes int, cfg Config) *Model {
	stem := nn.NewSequential(
		nn.NewConv2D(rng, inC, stemC, 3, 1, 1),
		nn.NewBatchNorm(stemC),
		nn.NewReLU(),
	)
	layers := make([]*ModuleLayer, len(stages))
	sizes := make([]int, len(stages))
	prev := stemC
	for li, st := range stages {
		layer := NewModuleLayer()
		for i := 0; i < cfg.ModulesPerLayer; i++ {
			if cfg.ResidualModules && i == cfg.ModulesPerLayer-1 {
				layer.Modules = append(layer.Modules, bypassModule(rng, prev, st.OutC, st.Stride))
				continue
			}
			mid := int(float64(st.OutC) * cfg.shrinkFrac(i, cfg.ModulesPerLayer))
			layer.Modules = append(layer.Modules, convModule(rng, prev, st.OutC, mid, st.Stride))
		}
		layers[li] = layer
		sizes[li] = layer.N()
		prev = st.OutC
	}
	inFlat := inC * side * side
	m := &Model{
		Stem:     stem,
		Layers:   layers,
		Head:     nn.NewSequential(nn.NewReLU(), nn.NewGlobalAvgPool(), nn.NewDense(rng, prev, classes)),
		Selector: NewSelector(rng, inFlat, cfg.EmbedDim, sizes),
		InShape:  []int{inC, side, side},
		TopK:     cfg.TopK,
	}
	m.Validate()
	return m
}
