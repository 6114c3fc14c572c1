package fed

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/modular"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Task bundles everything the experiments need to run one application:
// the data generator, model builders for every strategy family, and the
// non-IID sub-task grouping.
type Task struct {
	Name      string
	Gen       data.Generator
	InShape   []int
	Classes   int
	GroupSize int // sub-task = contiguous class group of this size

	// BuildFull constructs the full (or width-scaled, for HeteroFL) model.
	BuildFull func(rng *tensor.RNG, rate float64) nn.Layer
	// BuildModular constructs Nebula's modularized cloud model.
	BuildModular func(rng *tensor.RNG) *modular.Model
	// BuildBranchy constructs the AdaptiveNet-style multi-branch model.
	BuildBranchy func(rng *tensor.RNG) *MultiBranch
}

// InElems returns the flattened per-sample input size.
func (t *Task) InElems() int {
	n := 1
	for _, d := range t.InShape {
		n *= d
	}
	return n
}

// Scale selects experiment size. ScaleQuick keeps unit tests and benches
// fast; ScalePaper approaches the paper's configuration (16 modules per
// layer, larger models) and is used by the cmd/nebula-sim harness.
type Scale int

const (
	ScaleQuick Scale = iota
	ScalePaper
)

func modularCfg(scale Scale, modulesPerLayer int) modular.Config {
	cfg := modular.DefaultConfig()
	cfg.ModulesPerLayer = modulesPerLayer
	cfg.MinShrink = 0.25
	cfg.MaxShrink = 0.7
	if scale == ScaleQuick {
		cfg.ModulesPerLayer = 8
		cfg.TopK = 3
		cfg.EmbedDim = 24
	}
	return cfg
}

// HARTask is the mobile-sensing row: SynthHAR + MLP, 1 module layer with 16
// modules (paper Section 6.1).
func HARTask(seed int64, scale Scale) *Task {
	gen := data.NewSynthHAR(seed)
	// The full model is the "large cloud model" every baseline trains and
	// ships; the modularized variant uses a leaner backbone whose shrunk
	// modules keep derived sub-models well below the full model's size.
	fullHidden, modHidden := 128, 48
	if scale == ScalePaper {
		fullHidden, modHidden = 128, 64
	}
	return &Task{
		Name:      "har-mlp",
		Gen:       gen,
		InShape:   []int{64},
		Classes:   6,
		GroupSize: 1, // HAR sub-task = one activity
		BuildFull: func(rng *tensor.RNG, rate float64) nn.Layer {
			return nn.NewMLP(rng, 64, []int{fullHidden, fullHidden}, 6, rate)
		},
		BuildModular: func(rng *tensor.RNG) *modular.Model {
			return modular.NewModularMLP(rng, 64, modHidden, 6, modularCfg(scale, 16))
		},
		BuildBranchy: func(rng *tensor.RNG) *MultiBranch {
			return NewMultiBranchMLP(rng, 64, fullHidden, 6, 3)
		},
	}
}

// Image10Task is the CIFAR-10/ResNet18 row at simulation scale.
func Image10Task(seed int64, scale Scale) *Task {
	side := 8
	stem, c1, c2 := 16, 24, 32 // modular backbone geometry
	fc1, fc2 := 32, 48         // full "large cloud model" geometry
	if scale == ScalePaper {
		side, stem, c1, c2 = 16, 20, 32, 48
		fc1, fc2 = 32, 56
	}
	gen := data.NewSynthImage(seed, 10, side)
	return &Task{
		Name:      "image10-resnet",
		Gen:       gen,
		InShape:   []int{3, side, side},
		Classes:   10,
		GroupSize: 2,
		BuildFull: func(rng *tensor.RNG, rate float64) nn.Layer {
			return nn.NewResNetLike(rng, 3, side, []int{fc1, fc2}, 10, rate)
		},
		BuildModular: func(rng *tensor.RNG) *modular.Model {
			return modular.NewModularCNN(rng, 3, side, stem,
				[]modular.ConvStage{{OutC: c1, Stride: 1}, {OutC: c2, Stride: 2}},
				10, modularCfg(scale, 16))
		},
		BuildBranchy: func(rng *tensor.RNG) *MultiBranch {
			return NewMultiBranchCNN(rng, 3, side, []int{fc1, fc2}, 10)
		},
	}
}

// Image100Task is the CIFAR-100/VGG16 row: a deeper VGG-style model, last
// blocks modularized with more modules (paper uses 32).
func Image100Task(seed int64, scale Scale) *Task {
	side := 8
	stem, c1, c2 := 16, 24, 40 // modular backbone geometry
	fc1, fc2 := 48, 80         // full "large cloud model" geometry
	classes := 20              // quick scale uses 20 "coarse" classes
	modules := 16
	if scale == ScalePaper {
		side, stem, c1, c2, classes, modules = 16, 16, 32, 48, 100, 32
		fc1, fc2 = 56, 96
	}
	gen := data.NewSynthImage(seed, classes, side)
	return &Task{
		Name:      "image100-vgg",
		Gen:       gen,
		InShape:   []int{3, side, side},
		Classes:   classes,
		GroupSize: classes / 10,
		BuildFull: func(rng *tensor.RNG, rate float64) nn.Layer {
			return nn.NewVGGLike(rng, 3, side, []int{fc1, fc1, fc2}, classes, rate)
		},
		BuildModular: func(rng *tensor.RNG) *modular.Model {
			return modular.NewModularCNN(rng, 3, side, stem,
				[]modular.ConvStage{{OutC: c1, Stride: 2}, {OutC: c2, Stride: 2}},
				classes, modularCfg(scale, modules))
		},
		BuildBranchy: func(rng *tensor.RNG) *MultiBranch {
			return NewMultiBranchCNN(rng, 3, side, []int{fc1, fc2}, classes)
		},
	}
}

// SpeechTask is the Google-Speech/ResNet34 row: 35 classes over
// spectrogram-like single-channel inputs.
func SpeechTask(seed int64, scale Scale) *Task {
	gen := data.NewSynthSpeech(seed)
	stem, c1, c2 := 12, 20, 28 // modular backbone geometry
	fc1, fc2 := 32, 48         // full "large cloud model" geometry
	modules := 16
	if scale == ScalePaper {
		stem, c1, c2, modules = 12, 24, 40, 32
		fc1, fc2 = 32, 56
	}
	return &Task{
		Name:      "speech-resnet",
		Gen:       gen,
		InShape:   []int{1, 16, 16},
		Classes:   35,
		GroupSize: 5,
		BuildFull: func(rng *tensor.RNG, rate float64) nn.Layer {
			return nn.NewResNetLike(rng, 1, 16, []int{fc1, fc2}, 35, rate)
		},
		BuildModular: func(rng *tensor.RNG) *modular.Model {
			return modular.NewModularCNN(rng, 1, 16, stem,
				[]modular.ConvStage{{OutC: c1, Stride: 2}, {OutC: c2, Stride: 2}},
				35, modularCfg(scale, modules))
		},
		BuildBranchy: func(rng *tensor.RNG) *MultiBranch {
			return NewMultiBranchCNN(rng, 1, 16, []int{fc1, fc2}, 35)
		},
	}
}

// AllTasks returns the four evaluation tasks.
func AllTasks(seed int64, scale Scale) []*Task {
	return []*Task{HARTask(seed, scale), Image10Task(seed+1, scale), Image100Task(seed+2, scale), SpeechTask(seed+3, scale)}
}

// ScaleByName resolves a scale by its flag name ("quick" or "paper"), the one
// parser the binaries share, so peers given the same name build the same
// architecture and an unknown name is an error everywhere.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "quick":
		return ScaleQuick, nil
	case "paper":
		return ScalePaper, nil
	}
	return ScaleQuick, fmt.Errorf("unknown scale %q", name)
}

// TaskByName resolves a task by its Name field ("har-mlp", "image10-resnet",
// "image100-vgg", "speech-resnet"). Returns nil for unknown names.
func TaskByName(name string, seed int64, scale Scale) *Task {
	for _, t := range AllTasks(seed, scale) {
		if t.Name == name {
			return t
		}
	}
	return nil
}
