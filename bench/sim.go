package main

import (
	"sync/atomic"
	"time"

	"eunomia"
)

// simCores is the paper's contended regime: 16 virtual cores.
const simCores = 16

func (c *config) simOpsPerCore() int {
	if c.quick {
		return 500
	}
	return int(3000 * c.seconds)
}

// simClock gives each virtual core's worker the core's virtual time. The
// device stamps every event it emits with the emitting core's clock, and
// observers cost no virtual time, so listening changes no simulated cycle.
// The lockstep simulator runs one goroutine at a time, so there is nothing
// to synchronise.
type simClock struct{ now [simCores]uint64 }

func (s *simClock) Event(e eunomia.Event) {
	if int(e.Proc) < simCores {
		s.now[e.Proc] = e.TS
	}
}

// runSim measures sim-contended: a fixed number of ops per virtual core
// under DB.RunVirtual on the emulated backend. Everything it reports but
// set-up and memory is in virtual time, which is deterministic: the same
// seed gives the same numbers to the last digit. throughput_ops_s is ops
// per virtual second; an op's latency is the virtual time from its core's
// previous completion to its own, read from the core's last event.
func runSim(wl *workload, c *config) (*result, error) {
	res := newResult()
	keys := c.keys(wl)
	order := preloadOrder(keys, wl.half)
	clock := &simClock{}
	simWL := *wl
	simWL.observer = clock
	st, setupS, err := setup(&simWL, c, order)
	if err != nil {
		return nil, err
	}
	db := st.store.(*eunomia.DB)
	res.e2e["setup_s"] = setupS
	res.e2e["mem_bytes_per_key"] = float64(db.Metrics().Memory.LiveBytes) / float64(len(order))

	tr := wl.traffic
	tr.keys = keys
	perCore := c.simOpsPerCore()
	ws := make([]*worker, simCores)
	for i := range ws {
		ws[i] = newWorker(i, simCores, keys, nil, genOps(tr, c.seed, i, simCores, perCore))
		ws[i].mustFind, ws[i].half = true, wl.half
	}

	before := snapshot(db)
	// The simulator starts core bodies in core-id order (all clocks are 0
	// and ties break by id), so worker i runs on core i; an op during
	// which its core's clock did not move would show that it does not.
	var next atomic.Int32
	clock.now = [simCores]uint64{}
	t0 := time.Now()
	vr := db.RunVirtual(simCores, func(t *eunomia.Thread) {
		w := ws[next.Add(1)-1]
		w.h = t
		var done uint64
		for _, o := range w.ops {
			w.exec(o)
			end := clock.now[w.id]
			if end <= done {
				w.failed++
			}
			w.hists[o.kind()].record(end - done)
			done = end
		}
	})
	wall := time.Since(t0).Seconds()
	after := snapshot(db)
	simOps := uint64(simCores * perCore)
	verify := db.NewThread()
	for _, w := range ws {
		w.h = verify
		w.recheck()
	}

	res.e2e["throughput_ops_s"] = float64(simOps) / vr.Seconds
	counterMetrics(res, before, after, simOps, 0)
	res.layer["htm.wasted_cycle_pct"] = ratio(float64(vr.Stats.WastedCycles), float64(vr.Cycles)*simCores) * 100
	res.layer["vclock.sim_wall_s"] = wall
	res.layer["vclock.sim_ops_per_wall_s"] = float64(simOps) / wall

	// The histograms hold virtual cycles.
	res.latencyMetrics(tr, fold(ws), float64(vr.Cycles)/vr.Seconds/1e6)
	res.count(ws)
	return res, db.Close()
}
