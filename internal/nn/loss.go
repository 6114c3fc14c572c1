package nn

import (
	"math"

	"repro/internal/tensor"
)

// SoftmaxCrossEntropy computes softmax + cross-entropy loss over logits
// [batch, classes] and integer labels. It returns the mean loss and the
// gradient w.r.t. the logits (already divided by batch size).
func SoftmaxCrossEntropy(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	batch, classes := logits.Dim(0), logits.Dim(1)
	if len(labels) != batch {
		panic("nn: label count does not match batch size")
	}
	grad := tensor.New(batch, classes)
	var loss float64
	probs := make([]float32, classes)
	for b := 0; b < batch; b++ {
		row := logits.Row(b)
		tensor.Softmax(probs, row)
		y := labels[b]
		p := float64(probs[y])
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
		grow := grad.Row(b)
		copy(grow, probs)
		grow[y] -= 1
	}
	inv := float32(1.0 / float64(batch))
	grad.Scale(inv)
	return loss / float64(batch), grad
}

// Accuracy returns the fraction of rows whose argmax equals the label.
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	batch := logits.Dim(0)
	correct := 0
	for b := 0; b < batch; b++ {
		if logits.ArgMaxRow(b) == labels[b] {
			correct++
		}
	}
	return float64(correct) / float64(batch)
}
