package main

import (
	"fmt"

	"eunomia"
	"eunomia/internal/durable"
)

// rung is one level of the layer-tax ladder, bottom first.
type rung int

const (
	rHTM rung = iota
	rCore
	rDB
	rDurable
	rCluster
	rShard
	numRungs
)

var rungNames = [numRungs]string{"htm", "core", "db", "durable", "cluster", "shard"}

// workload is one named traffic mix against one store configuration. The
// names are normative: BENCHMARK.json, README.md and later issues cite them.
type workload struct {
	name    string
	traffic traffic
	half    bool // preload a seeded half of the key space instead of all of it
	cluster bool // OpenCluster with 4 hash shards (health on) instead of Open
	durable bool // MemFS durability, immediate commit
	// snapshotBytes is Durability.SnapshotBytes (0: no automatic snapshots).
	snapshotBytes int64
	// arenaPerKey sizes Options.ArenaWords as a multiple of the key count
	// (0: the library default).
	arenaPerKey uint64
	// rungs lists the ladder levels this workload climbs, bottom first.
	rungs []rung
	sim   bool // the emulated 16-core RunVirtual workload
	// observer, when set, receives the store's observability events.
	observer eunomia.Observer
}

var workloads = []workload{
	{
		name:        "point-skewed",
		traffic:     traffic{keys: 1_000_000, theta: 0.99, mix: [numKinds]uint64{kGet: 50, kPut: 50}},
		arenaPerKey: 32,
		rungs:       []rung{rHTM, rCore, rDB},
	},
	{
		name:    "serve-readmostly",
		traffic: traffic{keys: 1_000_000, mix: [numKinds]uint64{kGet: 95, kPut: 5}},
		cluster: true,
		durable: true,
		rungs:   []rung{rHTM, rCore, rDB, rDurable, rCluster, rShard},
	},
	{
		name:          "durable-write",
		traffic:       traffic{keys: 200_000, mix: [numKinds]uint64{kPut: 70, kDel: 30}, owned: true},
		durable:       true,
		snapshotBytes: 16 << 20,
		rungs:         []rung{rHTM, rCore, rDB, rDurable},
	},
	{
		name:    "scan-mix",
		traffic: traffic{keys: 200_000, theta: 0.8, mix: [numKinds]uint64{kPut: 5, kDel: 5, kScan: 90}},
		half:    true,
		cluster: true,
		rungs:   []rung{rHTM, rCore, rDB, rCluster, rShard},
	},
	{
		name:    "sim-contended",
		traffic: traffic{keys: 100_000, theta: 0.99, mix: [numKinds]uint64{kGet: 50, kPut: 50}, shared: true},
		half:    true,
		sim:     true,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// scanMax is the page size of every scan; scanTail is how close to the end
// of the key space a scan may start and still legitimately return fewer.
const (
	scanMax  = 16
	scanTail = 1000
)

// preloadVal and putVal encode the key into the value so that any read can
// be checked without knowing which write produced it.
func preloadVal(key uint64) uint64    { return key << 16 }
func putVal(key, n uint64) uint64     { return key<<16 | n&0xffff }
func valMatches(key, val uint64) bool { return val>>16 == key }

// storeShape selects how much of a workload's configuration a store gets;
// the ladder opens the same workload at lower rungs by switching parts off.
type storeShape struct {
	cluster bool
	durable bool
	health  bool
}

func (wl *workload) shape() storeShape {
	return storeShape{cluster: wl.cluster, durable: wl.durable, health: true}
}

// opened is a store plus the in-memory disks behind it (nil without
// durability), kept so the crash check can kill and reboot them.
type opened struct {
	store eunomia.Store
	fses  []*durable.MemFS
	// reopen opens the same configuration over the same disks again.
	reopen func() (eunomia.Store, error)
}

// open builds an empty store for wl over keys keys. Durable stores log to
// fresh MemFS disks — one per shard on a cluster — because a real fsync on
// this sandbox measures the hypervisor's disk, not the code.
func (wl *workload) open(keys uint64, sh storeShape) (*opened, error) {
	o := eunomia.Options{
		ArenaWords:    wl.arenaPerKey * keys,
		Observability: eunomia.Observability{Observer: wl.observer},
	}
	if !wl.sim {
		o.Backend = eunomia.Host
	}
	res := &opened{}
	newFS := func() *durable.MemFS {
		fs := durable.NewMemFS(durable.FaultPlan{})
		res.fses = append(res.fses, fs)
		return fs
	}
	if sh.durable {
		o.Durability = eunomia.Durability{Dir: wl.name, FS: newFS(), SnapshotBytes: wl.snapshotBytes}
	}
	if !sh.cluster {
		res.reopen = func() (eunomia.Store, error) { return eunomia.Open(o) }
	} else {
		co := eunomia.ClusterOptions{Shards: 4, Shard: o, Health: eunomia.HealthOptions{Disable: !sh.health}}
		if sh.durable {
			shardFS := []*durable.MemFS{newFS(), newFS(), newFS(), newFS()}
			co.PerShard = func(i int, so *eunomia.Options) { so.Durability.FS = shardFS[i] }
		}
		res.reopen = func() (eunomia.Store, error) { return eunomia.OpenCluster(co) }
	}
	var err error
	res.store, err = res.reopen()
	return res, err
}

// preload inserts order through one handle, single-threaded.
func preload(st eunomia.Store, order []uint64) error {
	h := st.NewHandle()
	defer h.Close()
	for _, k := range order {
		if err := h.Put(k, preloadVal(k)); err != nil {
			return fmt.Errorf("preload key %d: %w", k, err)
		}
	}
	return nil
}
