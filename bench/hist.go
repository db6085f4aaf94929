package main

import "math/bits"

// hist is a preallocated, mergeable log-linear histogram of uint64 samples
// (nanoseconds here): histSub linear sub-buckets per power of two, so a
// bucket is at most 1/histSub (0.8 %) of its value wide, and quantiles are
// interpolated inside the bucket. internal/metrics.Histogram's
// factor-of-two buckets cannot resolve a 10 % regression bound.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// Values at or above 2^histMaxBits ns (18 minutes) clamp into the
	// last bucket.
	histMaxBits = 40
	histBuckets = (histMaxBits - histSubBits + 1) * histSub
)

func bucketOf(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - 1
	if e >= histMaxBits {
		return histBuckets - 1
	}
	return (e-histSubBits+1)<<histSubBits | int(v>>(e-histSubBits))&(histSub-1)
}

// bucketBounds returns the half-open value range [lo, hi) of bucket i.
func bucketBounds(i int) (lo, hi float64) {
	if i < histSub {
		return float64(i), float64(i + 1)
	}
	e := i>>histSubBits + histSubBits - 1
	w := uint64(1) << (e - histSubBits)
	l := uint64(1)<<e + uint64(i&(histSub-1))*w
	return float64(l), float64(l + w)
}

func (h *hist) record(v uint64) {
	h.counts[bucketOf(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

func (h *hist) reset() { *h = hist{} }

// quantile returns the q-quantile (0 < q < 1), 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= target {
			lo, hi := bucketBounds(i)
			return lo + (hi-lo)*(target-seen)/float64(c)
		}
		seen += float64(c)
	}
	_, hi := bucketBounds(histBuckets - 1)
	return hi
}
