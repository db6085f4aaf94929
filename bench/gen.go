package main

import "math"

// The generators are self-contained on purpose: they do not import
// internal/workload, so a refactor there cannot silently change the
// benchmark's inputs. gen_test.go pins the first draws of every workload.

// rng is xorshift64* seeded through splitmix64 (so seed 0 and adjacent
// seeds give unrelated streams).
type rng struct{ s uint64 }

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// newRNG derives an independent stream from (seed, lane); lane separates
// the workers' streams from each other and from the preload order.
func newRNG(seed, lane uint64) rng {
	s := splitmix(splitmix(seed) ^ lane*0xd6e8feb86659fd93)
	if s == 0 {
		s = 1
	}
	return rng{s}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// float returns a uniform draw in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform draw in [0, n).
func (r *rng) intn(n uint64) uint64 { return r.next() >> 11 % n }

// zipf draws ranks in [0, n) with P(rank) ∝ 1/(rank+1)^theta, by the
// closed-form approximation of Gray et al. (the YCSB generator). Rank 0 is
// the hottest and hot ranks are adjacent — the workloads map rank r to
// key r+1, so the hot set shares leaves, as in the paper.
type zipf struct {
	n                        float64
	theta, alpha, zetan, eta float64
}

func newZipf(n uint64, theta float64) *zipf {
	zeta := func(m uint64) float64 {
		s := 0.0
		for i := uint64(1); i <= m; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipf{n: float64(n), theta: theta, alpha: 1 / (1 - theta), zetan: zeta(n)}
	z.eta = (1 - math.Pow(2/z.n, 1-theta)) / (1 - zeta(2)/z.zetan)
	return z
}

func (z *zipf) rank(u float64) uint64 {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	r := uint64(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= uint64(z.n) {
		r = uint64(z.n) - 1
	}
	return r
}

// opKind is one of the four Handle operations the workloads issue.
type opKind uint8

const (
	kGet opKind = iota
	kPut
	kDel
	kScan
	numKinds
)

var kindNames = [numKinds]string{"get", "put", "del", "scan"}

// op packs one generated operation: kind in the top byte, key below.
type op uint64

func mkOp(k opKind, key uint64) op { return op(uint64(k)<<56 | key) }
func (o op) kind() opKind          { return opKind(o >> 56) }
func (o op) key() uint64           { return uint64(o) & (1<<56 - 1) }

// traffic describes a workload's key distribution and operation mix.
type traffic struct {
	keys  uint64           // key space: keys are 1..keys
	theta float64          // Zipfian skew; 0 means uniform
	mix   [numKinds]uint64 // percent per kind, summing to 100
	// shared has every worker draw from the whole key space, one hot set
	// for all: the contended regime, which only the lockstep simulator runs.
	// Without it worker w of n draws from the w-th contiguous n-th of the
	// space, so on real threads no two workers ever meet in a leaf and no
	// transaction of one conflicts with another's (README.md, "Why each
	// thread has a block of its own"). One worker's block is all of it.
	shared bool
	// owned has the workers keep the last acknowledged state of the keys
	// they write; with a block each, every key has one writer.
	owned bool
}

// blockOf returns the size of worker w's block of the key space and the rank
// it starts at.
func blockOf(keys uint64, w, workers int) (span, base uint64) {
	span = keys / uint64(workers)
	return span, uint64(w) * span
}

// genOps returns the first n operations of worker w's stream (of workers
// streams) for the given seed. The stream is a pure function of its
// arguments.
func genOps(tr traffic, seed uint64, w, workers, n int) []op {
	r := newRNG(seed, uint64(w)+1)
	span, base := tr.keys, uint64(0)
	if !tr.shared {
		span, base = blockOf(tr.keys, w, workers)
	}
	var z *zipf
	if tr.theta > 0 {
		z = newZipf(span, tr.theta)
	}
	ops := make([]op, n)
	for i := range ops {
		rank := base
		if z != nil {
			rank += z.rank(r.float())
		} else {
			rank += r.intn(span)
		}
		p := r.intn(100)
		kind := kGet
		for acc := tr.mix[kind]; p >= acc; acc += tr.mix[kind] {
			kind++
		}
		ops[i] = mkOp(kind, rank+1)
	}
	return ops
}

// layoutSeed seeds the preload — which keys and in what order — for every
// run whatever its --seed, so the tree layout is a constant of the benchmark
// and the seed varies only the traffic. Layout is not noise to average out:
// on sim-contended, where the preload happens to put leaf boundaries among
// the hottest keys moves virtual throughput by a quarter.
const layoutSeed = 1

// member reports whether key is part of the preload set when only half of
// the key space is loaded.
func member(key uint64) bool { return splitmix(splitmix(layoutSeed)^key)&1 == 0 }

// preloadOrder returns the keys to preload, in the shuffled order they are
// inserted.
func preloadOrder(keys uint64, half bool) []uint64 {
	order := make([]uint64, 0, keys)
	for k := uint64(1); k <= keys; k++ {
		if !half || member(k) {
			order = append(order, k)
		}
	}
	r := newRNG(layoutSeed, 0)
	for i := len(order) - 1; i > 0; i-- {
		j := r.intn(uint64(i) + 1)
		order[i], order[j] = order[j], order[i]
	}
	return order
}
