package workload

import "eunomia/internal/vclock"

// Additional YCSB-family generators beyond the paper's four. They are not
// used by any reproduced figure but round out the workload suite for the
// library's own users (and let experiments separate "skew" from "key
// adjacency": the plain Zipfian's hottest keys are neighbors, the
// scrambled one's are spread across the key space).

// ScrambledZipfian draws ranks from the Zipfian distribution and hashes
// them over the key space, as YCSB's ScrambledZipfianGenerator does. The
// popularity histogram is identical to Zipfian; adjacency is destroyed, so
// the false-conflict mechanisms that depend on neighboring hot keys
// disappear while true conflicts remain.
type scrambledGen struct {
	inner Generator
	n     uint64
}

// NewScrambled wraps any generator with rank scrambling.
func NewScrambled(inner Generator) Generator {
	return scrambledGen{inner: inner, n: inner.N()}
}

func (g scrambledGen) Next(r *vclock.Rand) uint64 {
	return splitmix64(g.inner.Next(r)) % g.n
}

func (g scrambledGen) N() uint64 { return g.n }
