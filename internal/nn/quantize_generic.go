//go:build !amd64

package nn

// The codec's chunk loops are their Go loops off amd64, where there is no
// twin to select.

func diffRangeBlocks(diff, vals, ref []float32) (lo, hi float32, ok bool) { return 0, 0, false }

func quantize8Blocks(codes []byte, vec []float32, lo, inv float32) (int, bool) { return 0, false }

func addIntoBlocks(q Quantized8, dst, base []float32) int { return 0 }
