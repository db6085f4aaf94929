package main

import (
	"math"
	"sort"
	"testing"
)

// sample draws n seeded values spread log-uniformly over six decades, like
// latencies from a hundred nanoseconds to a hundred milliseconds.
func sample(seed uint64, n int) []uint64 {
	r := newRNG(seed, 0)
	v := make([]uint64, n)
	for i := range v {
		v[i] = uint64(100 * math.Pow(10, 6*r.float()))
	}
	return v
}

func TestHistQuantilesMatchExact(t *testing.T) {
	v := sample(1, 200_000)
	var h hist
	for _, x := range v {
		h.record(x)
	}
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999} {
		exact := float64(v[int(q*float64(len(v)))])
		got := h.quantile(q)
		if rel := math.Abs(got-exact) / exact; rel > 0.03 {
			t.Errorf("q=%g: hist %g, exact %g, relative error %.4f > 0.03", q, got, exact, rel)
		}
	}
}

func TestHistBucketsAreContiguous(t *testing.T) {
	prevHi := 0.0
	for i := 0; i < histBuckets; i++ {
		lo, hi := bucketBounds(i)
		if lo != prevHi || hi <= lo {
			t.Fatalf("bucket %d = [%g, %g), previous ended at %g", i, lo, hi, prevHi)
		}
		if got := bucketOf(uint64(lo)); got != i {
			t.Fatalf("bucketOf(%g) = %d, want %d", lo, got, i)
		}
		if i >= histSub && (hi-lo)/lo > 1.0/histSub {
			t.Fatalf("bucket %d is %g wide at %g: more than 1/%d", i, hi-lo, lo, histSub)
		}
		prevHi = hi
	}
	if got := bucketOf(math.MaxUint64); got != histBuckets-1 {
		t.Fatalf("bucketOf(max) = %d, want the last bucket", got)
	}
}

func TestHistMergeEqualsRecordingAll(t *testing.T) {
	a, b := sample(2, 5000), sample(3, 7000)
	var ha, hb, all hist
	for _, x := range a {
		ha.record(x)
		all.record(x)
	}
	for _, x := range b {
		hb.record(x)
		all.record(x)
	}
	ha.merge(&hb)
	if ha != all {
		t.Fatal("merged histogram differs from one that recorded both samples")
	}
}

func TestHistRecordDoesNotAllocate(t *testing.T) {
	var h hist
	if n := testing.AllocsPerRun(1000, func() { h.record(12345) }); n != 0 {
		t.Fatalf("record allocates %g times per call", n)
	}
}
