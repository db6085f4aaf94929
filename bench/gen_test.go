package main

import (
	"slices"
	"testing"
)

func stream(wl *workload, seed uint64, worker, workers int) []op {
	return genOps(wl.traffic, seed, worker, workers, 4096)
}

func TestSameSeedSameStream(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		a, b := stream(wl, 7, 1, 2), stream(wl, 7, 1, 2)
		if !slices.Equal(a, b) {
			t.Errorf("%s: two streams from one seed differ", wl.name)
		}
		if slices.Equal(a, stream(wl, 8, 1, 2)) {
			t.Errorf("%s: seeds 7 and 8 give the same stream", wl.name)
		}
		if slices.Equal(a, stream(wl, 7, 0, 2)) {
			t.Errorf("%s: workers 0 and 1 get the same stream", wl.name)
		}
		if !slices.Equal(preloadOrder(1000, wl.half), preloadOrder(1000, wl.half)) {
			t.Errorf("%s: preload order is not a function of the seed", wl.name)
		}
	}
}

func TestStreamsFollowTheirTraffic(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		ops := genOps(wl.traffic, 1, 1, 2, 100_000)
		var kinds [numKinds]float64
		for _, o := range ops {
			if o.key() < 1 || o.key() > wl.traffic.keys {
				t.Fatalf("%s: key %d outside 1..%d", wl.name, o.key(), wl.traffic.keys)
			}
			if !wl.traffic.shared && o.key() <= wl.traffic.keys/2 {
				t.Fatalf("%s: worker 1 of 2 drew key %d from worker 0's block", wl.name, o.key())
			}
			kinds[o.kind()]++
		}
		for k, n := range kinds {
			if got, want := n/float64(len(ops))*100, float64(wl.traffic.mix[k]); got < want-1 || got > want+1 {
				t.Errorf("%s: %s is %.1f%% of the stream, want %g%%", wl.name, kindNames[k], got, want)
			}
		}
	}
}

// TestGoldenDraws pins the first 16 ops for seed 1 of the one client whose
// numbers are held to a bound (of core 0 of 16 on sim-contended): a change
// here changes every number the benchmark has reported.
func TestGoldenDraws(t *testing.T) {
	for i := range workloads {
		wl := &workloads[i]
		workers := 1
		if wl.sim {
			workers = simCores
		}
		got := stream(wl, 1, 0, workers)[:16]
		if want := golden[wl.name]; !slices.Equal(got, want) {
			t.Errorf("%s: first draws changed:\n got  %#v\n want %#v", wl.name, got, want)
		}
	}
}

var golden = map[string][]op{
	"point-skewed": {
		mkOp(kPut, 130), mkOp(kPut, 1), mkOp(kPut, 70096), mkOp(kPut, 813),
		mkOp(kGet, 9485), mkOp(kGet, 96901), mkOp(kPut, 1870), mkOp(kGet, 2),
		mkOp(kPut, 167924), mkOp(kPut, 22857), mkOp(kPut, 2), mkOp(kGet, 22),
		mkOp(kPut, 95), mkOp(kPut, 8423), mkOp(kGet, 604532), mkOp(kPut, 1),
	},
	"serve-readmostly": {
		mkOp(kGet, 402084), mkOp(kGet, 840757), mkOp(kGet, 817513), mkOp(kGet, 362102),
		mkOp(kGet, 147448), mkOp(kGet, 378464), mkOp(kGet, 492361), mkOp(kGet, 443091),
		mkOp(kGet, 146117), mkOp(kGet, 293426), mkOp(kGet, 589237), mkOp(kGet, 589847),
		mkOp(kGet, 639331), mkOp(kGet, 262293), mkOp(kGet, 531916), mkOp(kGet, 518510),
	},
	"durable-write": {
		mkOp(kPut, 2084), mkOp(kPut, 40757), mkOp(kDel, 17513), mkOp(kPut, 162102),
		mkOp(kPut, 147448), mkOp(kPut, 178464), mkOp(kDel, 92361), mkOp(kPut, 43091),
		mkOp(kDel, 146117), mkOp(kPut, 93426), mkOp(kDel, 189237), mkOp(kPut, 189847),
		mkOp(kPut, 39331), mkOp(kDel, 62293), mkOp(kPut, 131916), mkOp(kPut, 118510),
	},
	"scan-mix": {
		mkOp(kScan, 2529), mkOp(kScan, 1), mkOp(kScan, 74827), mkOp(kScan, 8571),
		mkOp(kScan, 31340), mkOp(kScan, 85142), mkOp(kScan, 13776), mkOp(kScan, 9),
		mkOp(kScan, 105335), mkOp(kScan, 46720), mkOp(kScan, 10), mkOp(kScan, 543),
		mkOp(kScan, 1984), mkOp(kScan, 29628), mkOp(kPut, 168090), mkOp(kScan, 6),
	},
	"sim-contended": {
		mkOp(kPut, 51), mkOp(kPut, 1), mkOp(kPut, 10414), mkOp(kPut, 240),
		mkOp(kGet, 1910), mkOp(kGet, 13711), mkOp(kPut, 484), mkOp(kGet, 1),
		mkOp(kPut, 21882), mkOp(kPut, 4023), mkOp(kPut, 1), mkOp(kGet, 12),
		mkOp(kPut, 39), mkOp(kPut, 1727), mkOp(kGet, 65114), mkOp(kPut, 1),
	},
}
