package main

// The open-loop machinery `swarm`, `swarmchaos` and `reshardchaos` share:
// a Poisson arrival process offered at a fixed rate against a durable
// sharded Cluster regardless of how fast the cluster answers. A closed
// loop measures capacity; an open loop measures what users feel when
// arrivals do not politely wait — queueing delay shows up in the sojourn
// (arrival→completion) percentiles, and overload shows up as drops at the
// bounded admission queue instead of unbounded latency. `make benchmark`
// has no open loop; these timelines are what eunobench adds to it.

import (
	"flag"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"eunomia"
	"eunomia/internal/durable"
	"eunomia/internal/metrics"
	"eunomia/internal/vclock"
	"eunomia/internal/workload"
)

var (
	swarmRate = flag.Float64("swarmrate", 0,
		"open loop: offered load in ops/s (0 = auto-calibrate to a fraction of measured capacity)")
	swarmDur = flag.Duration("swarmdur", 0,
		"open loop: run duration (0 = 3s swarm, 4s reshardchaos; 1s and 1.5s with -quick)")
	swarmQueue = flag.Int("swarmqueue", 4096,
		"open loop: admission queue depth; arrivals beyond it are dropped (load shedding)")
)

// loopBucket is the timeline resolution.
const loopBucket = 100 * time.Millisecond

// opSource draws the next operation. One source serves several
// goroutines, each with its own rng, so it must not keep state between
// calls (the Zipfian generator and the reshard key skew do not).
type opSource func(*vclock.Rand) workload.Op

// loopWorkers is the executor pool size: enough to overlap WAL waits even
// on one core.
func loopWorkers() int {
	return max(8, runtime.GOMAXPROCS(0)*2)
}

// execOp runs one operation against a worker's Session.
func execOp(sess *eunomia.Session, op workload.Op) error {
	switch op.Kind {
	case workload.OpGet:
		_, _, err := sess.Get(op.Key)
		return err
	case workload.OpPut:
		return sess.Put(op.Key, op.Key*7+1)
	case workload.OpDelete:
		_, err := sess.Delete(op.Key)
		return err
	default:
		_, err := sess.Scan(op.Key, op.ScanLen, func(uint64, uint64) bool { return true })
		return err
	}
}

// loopScale resolves the run's size: -keys (capped at 20k under -quick)
// and -swarmdur, or the scenario's default duration when it is unset.
func loopScale(full, short time.Duration) (uint64, time.Duration) {
	n, dur := *keys, *swarmDur
	if *quick {
		n, full = min(n, 20_000), short
	}
	if dur == 0 {
		dur = full
	}
	return n, dur
}

// openLoopCluster opens the system under test: a durable host-backend
// cluster with the breaker on and one in-memory disk per shard slot (so
// chaos can kill and revive one; disks beyond co.Shards are for a reshard
// to grow into), preloaded with keyOf(1..keys) so gets hit and the WALs
// hold acknowledged state for chaos to endanger.
func openLoopCluster(co eunomia.ClusterOptions, disks int, keys uint64, keyOf func(uint64) uint64) (*eunomia.Cluster, []*durable.MemFS, error) {
	fses := make([]*durable.MemFS, disks)
	for i := range fses {
		fses[i] = durable.NewMemFS(durable.FaultPlan{})
	}
	co.Shard = eunomia.Options{
		ArenaWords: 1 << 21,
		Backend:    eunomia.Host,
		Durability: eunomia.Durability{Dir: "openloop", FS: fses[0]},
	}
	co.PerShard = func(i int, o *eunomia.Options) { o.Durability.FS = fses[i] }
	co.Health = eunomia.HealthOptions{Window: 16, TripFailures: 4}
	c, err := eunomia.OpenCluster(co)
	if err != nil {
		return nil, nil, err
	}
	sess := c.NewSession()
	defer sess.Close()
	for k := uint64(1); k <= keys; k++ {
		if err := sess.Put(keyOf(k), k*7+1); err != nil {
			c.Close()
			return nil, nil, fmt.Errorf("preload key %d: %w", k, err)
		}
	}
	return c, fses, nil
}

// calibrate measures closed-loop capacity: the executor pool hammering c
// as fast as it answers for a short window.
func calibrate(c *eunomia.Cluster, seed uint64, next opSource) float64 {
	const window = 150 * time.Millisecond
	var total atomic.Uint64
	var wg sync.WaitGroup
	stop := time.Now().Add(window)
	for w := range loopWorkers() {
		wg.Add(1)
		go func(rng *vclock.Rand) {
			defer wg.Done()
			sess := c.NewSession()
			defer sess.Close()
			n := uint64(0)
			for time.Now().Before(stop) {
				if execOp(sess, next(rng)) == nil {
					n++
				}
			}
			total.Add(n)
		}(vclock.NewRand(seed + uint64(w)))
	}
	wg.Wait()
	return float64(total.Load()) / window.Seconds()
}

// offeredRate is -swarmrate, or the given fraction of calibrated capacity.
func offeredRate(capacity, fraction float64) float64 {
	if *swarmRate > 0 {
		return *swarmRate
	}
	return fraction * capacity
}

// poisson draws one Poisson(lambda) variate: Knuth for small lambda, the
// normal approximation above (exact enough for arrival counts).
func poisson(rng *vclock.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda < 64 {
		l := math.Exp(-lambda)
		k, p := 0, 1.0
		for {
			p *= rng.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	// Box-Muller gaussian.
	u1 := rng.Float64()
	for u1 == 0 {
		u1 = rng.Float64()
	}
	g := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*rng.Float64())
	return max(0, int(math.Round(lambda+math.Sqrt(lambda)*g)))
}

// openLoop is one open-loop run: arrivals drawn from next in 1ms Poisson
// slots at the offered rate for dur, admitted to a bounded queue (dropped,
// not queued, when it is full) and executed by a pool of workers that
// each own a Session (retry budgets are per Session, as they would be per
// connection in kvserver).
type openLoop struct {
	c       *eunomia.Cluster
	dur     time.Duration
	offered float64 // arrivals per second
	seed    uint64
	next    opSource
	// done, when set, observes every successful completion and the
	// timeline bucket it landed in, on the worker's goroutine.
	done func(op workload.Op, bucket int)
	// event, when set, is the mid-run fault or topology change: it runs
	// once on its own goroutine from the start of the run (it sleeps to
	// its own trigger), reads the current bucket from bucket(), and the
	// run waits for it to return.
	event func(bucket func() int)
}

// loopResult is what one run measured. arrivals = completed + errors +
// dropped; ok sums to completed.
type loopResult struct {
	arrivals, completed, errors, dropped uint64

	ok      []uint64            // completed-OK operations per bucket
	sojourn []metrics.Histogram // arrival→completion ns per bucket, failed ops included
}

// buckets is the timeline length: the run plus room for the tail that
// drains after the last arrival.
func (l *openLoop) buckets() int { return int(l.dur/loopBucket) + 2 }

func (l *openLoop) run() loopResult {
	nb := l.buckets()
	timeline := func() loopResult {
		return loopResult{ok: make([]uint64, nb), sojourn: make([]metrics.Histogram, nb)}
	}
	type arrival struct {
		op workload.Op
		t0 time.Time
	}
	// The admission queue: -swarmqueue arrivals may wait for a worker.
	queue := make(chan arrival, *swarmQueue)
	start := time.Now()
	bucketOf := func(t time.Time) int { return min(int(t.Sub(start)/loopBucket), nb-1) }

	// Executor pool. Each worker fills a timeline of its own (Histogram is
	// not goroutine-safe); they are merged once the workers are done.
	lines := make([]loopResult, loopWorkers())
	var wg sync.WaitGroup
	for w := range lines {
		lines[w] = timeline()
		wg.Add(1)
		go func(line *loopResult) {
			defer wg.Done()
			sess := l.c.NewSession()
			defer sess.Close()
			for a := range queue {
				err := execOp(sess, a.op)
				now := time.Now()
				b := bucketOf(now)
				line.sojourn[b].Observe(uint64(now.Sub(a.t0)))
				if err != nil {
					line.errors++
					continue
				}
				line.ok[b]++
				if l.done != nil {
					l.done(a.op, b)
				}
			}
		}(&lines[w])
	}

	var ev sync.WaitGroup
	if l.event != nil {
		ev.Add(1)
		go func() {
			defer ev.Done()
			l.event(func() int { return bucketOf(time.Now()) })
		}()
	}

	res := timeline()
	rng := vclock.NewRand(l.seed)
	perSlot := l.offered / 1000
	for slot := start; time.Since(start) < l.dur; {
		n := poisson(rng, perSlot)
		now := time.Now()
		for ; n > 0; n-- {
			res.arrivals++
			select {
			case queue <- arrival{op: l.next(rng), t0: now}:
			default:
				res.dropped++
			}
		}
		slot = slot.Add(time.Millisecond)
		time.Sleep(time.Until(slot))
	}
	close(queue)
	wg.Wait()
	ev.Wait()

	for w := range lines {
		res.errors += lines[w].errors
		for b := range res.ok {
			res.ok[b] += lines[w].ok[b]
			res.completed += lines[w].ok[b]
			res.sojourn[b].Merge(&lines[w].sojourn[b])
		}
	}
	return res
}

// window reports goodput (ops/s) and sojourn p99 (ns) over buckets [lo, hi).
func (r *loopResult) window(lo, hi int) (float64, uint64) {
	lo, hi = max(lo, 0), min(hi, len(r.ok))
	if hi <= lo {
		return 0, 0
	}
	var h metrics.Histogram
	n := uint64(0)
	for b := lo; b < hi; b++ {
		h.Merge(&r.sojourn[b])
		n += r.ok[b]
	}
	return float64(n) / (float64(hi-lo) * loopBucket.Seconds()), h.Snapshot().P99
}

// loopRun is one labeled invocation in BENCH_swarm.json (or a local
// reshardchaos artifact); Results holds the scenario's own record.
type loopRun struct {
	runStamp
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Shards     int    `json:"shards"`
	Keys       uint64 `json:"keys"`
	DurationMS int64  `json:"duration_ms"`
	Results    []any  `json:"results"`
}

func newLoopRun(scenario string, shards int, keys uint64, dur time.Duration, result any) loopRun {
	return loopRun{
		runStamp:   newStamp(*benchlabel + "-" + scenario),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Shards:     shards,
		Keys:       keys,
		DurationMS: dur.Milliseconds(),
		Results:    []any{result},
	}
}
