package obs

// SplitMix64 is the SplitMix64 finalizer: a bijective avalanche mix. Keyed
// hashes built from it (edgenet's fault rolls, span's trace sampling) depend
// only on their key, never on an RNG stream or on scheduling.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
