// Package hostbench holds the host-speed micro-benchmark bodies for the HTM
// emulator's hot paths: Tx.Load, Tx.Store, read-your-writes, and commit, at
// read/write-set sizes spanning the L1-capacity range the trees actually
// produce (a root-to-leaf probe is ~8 lines; a range scan or leaf split can
// touch hundreds).
//
// The bodies live in a normal (non-test) package so they can be driven two
// ways with identical code:
//
//   - `go test -bench=HostEmulator ./internal/htm/` via the thin wrappers in
//     internal/htm/bench_test.go, for -cpuprofile/-memprofile/-count work;
//   - `eunobench hostbench`, which runs them through testing.Benchmark and
//     writes a machine-readable summary (BENCH_emulator.json) so before/after
//     speedups are tracked across PRs.
//
// Every case runs single-threaded twice, with the same body. Under its
// plain name it runs on a WallProc, the clock the figures' preloads run on,
// so every access goes through the cost model as it does in a figure. Under
// a "host/" prefix it runs on a vclock.HostProc, the proc every NewThread
// handle gets, whose accesses skip the cost model: that row is the
// emulator's price on the library's own path. There are no conflicts and
// no aborts, so ns/op measures exactly the emulator's bookkeeping — the
// host overhead that, if superlinear, distorts every figure benchmark's
// wall time. Virtual-time metrics are deliberately not reported here;
// hostbench exists to measure the simulator, not the simulation.
package hostbench

import (
	"fmt"
	"testing"

	"eunomia/internal/htm"
	"eunomia/internal/simmem"
	"eunomia/internal/vclock"
)

// Sizes are the read/write-set line counts every case runs at. 512 is the
// emulated L1d capacity (DefaultConfig.MaxReadLines), the worst legal case.
var Sizes = []int{8, 64, 512}

// Case is one named micro-benchmark.
type Case struct {
	Name  string
	Bench func(b *testing.B)
}

// Cases returns the full HostEmulator suite: every case on a WallProc, then
// every case again on a HostProc under a "host/" prefix.
func Cases() []Case {
	var cs []Case
	for _, host := range []bool{false, true} {
		prefix := ""
		if host {
			prefix = "host/"
		}
		for _, n := range Sizes {
			cs = append(cs,
				Case{fmt.Sprintf("%sLoad/rs=%d", prefix, n), func(b *testing.B) { benchLoad(b, n, host) }},
				Case{fmt.Sprintf("%sLoad/sameLine/rs=%d", prefix, n), func(b *testing.B) { benchLoadSameLine(b, n, host) }},
				Case{fmt.Sprintf("%sLoadMerge/rs=%d", prefix, n), func(b *testing.B) { benchLoadMerge(b, n, host) }},
				Case{fmt.Sprintf("%sStoreCommit/ws=%d", prefix, n), func(b *testing.B) { benchStoreCommit(b, n, host) }},
				Case{fmt.Sprintf("%sReadYourWrites/ws=%d", prefix, n), func(b *testing.B) { benchReadYourWrites(b, n, host) }},
				Case{fmt.Sprintf("%sWriteCommit/rs=%d", prefix, n), func(b *testing.B) { benchWriteCommit(b, n, host) }},
			)
		}
	}
	return cs
}

// setup builds a single-threaded device, on a HostProc if host and a
// WallProc otherwise, with nLines line-aligned, line-sized allocations.
func setup(nLines int, host bool) (*htm.Thread, []simmem.Addr) {
	arena := simmem.NewArena(uint64((nLines + 16) * simmem.WordsPerLine * 2))
	// Double the default capacity caps: the fallback-lock subscription
	// occupies one read-set line, and capacity aborts are not what these
	// benchmarks measure — set-size scaling of the bookkeeping is.
	h := htm.New(arena, htm.Config{
		MaxReadLines:  2 * htm.DefaultConfig.MaxReadLines,
		MaxWriteLines: 2 * htm.DefaultConfig.MaxWriteLines,
	})
	var p vclock.Proc = vclock.NewWallProc(0, 0)
	if host {
		p = vclock.NewHostProc(0)
	}
	th := h.NewThread(p, 1)
	addrs := make([]simmem.Addr, nLines)
	for i := range addrs {
		addrs[i] = arena.AllocAligned(p, simmem.WordsPerLine, simmem.TagKeys)
	}
	return th, addrs
}

func mustCommit(b *testing.B, th *htm.Thread, body func(*htm.Tx)) {
	b.Helper()
	if ok, reason := th.Run(body); !ok {
		b.Fatalf("unexpected abort: %v", reason)
	}
}

// benchLoad: one read-only transaction reading n distinct lines. Each Load
// must consult the store buffer (empty) and append to the read log; the
// read-only commit is O(1).
func benchLoad(b *testing.B, n int, host bool) {
	th, addrs := setup(n, host)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustCommit(b, th, func(tx *htm.Tx) {
			for _, a := range addrs {
				tx.Load(a)
			}
		})
	}
	reportPerAccess(b, n)
}

// benchLoadSameLine: all eight words of each of n lines, line by line — the
// way a tree reads a node. Seven loads in eight hit the line just read and
// take the same-line revalidation; the read log gets one entry per line.
func benchLoadSameLine(b *testing.B, n int, host bool) {
	th, addrs := setup(n, host)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustCommit(b, th, func(tx *htm.Tx) {
			for _, a := range addrs {
				for w := simmem.Addr(0); w < simmem.WordsPerLine; w++ {
					tx.Load(a + w)
				}
			}
		})
	}
	reportPerAccess(b, n*simmem.WordsPerLine)
}

// benchLoadMerge: every line is loaded twice (different words) with the
// other lines in between, so the second pass revisits lines that are not the
// one just read: it doubles the read log and, at rs=512, reaches the
// fold-at-capacity point on its last load.
func benchLoadMerge(b *testing.B, n int, host bool) {
	th, addrs := setup(n, host)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustCommit(b, th, func(tx *htm.Tx) {
			for _, a := range addrs {
				tx.Load(a)
			}
			for _, a := range addrs {
				tx.Load(a + 1)
			}
		})
	}
	reportPerAccess(b, 2*n)
}

// benchStoreCommit: one transaction buffering stores to n distinct lines,
// then a writing commit that locks, applies, and releases all n.
func benchStoreCommit(b *testing.B, n int, host bool) {
	th, addrs := setup(n, host)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustCommit(b, th, func(tx *htm.Tx) {
			for j, a := range addrs {
				tx.Store(a, uint64(j))
			}
		})
	}
	reportPerAccess(b, n)
}

// benchReadYourWrites: n buffered stores followed by n Loads of the same
// addresses, all of which must be served from the store buffer.
func benchReadYourWrites(b *testing.B, n int, host bool) {
	th, addrs := setup(n, host)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustCommit(b, th, func(tx *htm.Tx) {
			for j, a := range addrs {
				tx.Store(a, uint64(j))
			}
			for _, a := range addrs {
				tx.Load(a)
			}
		})
	}
	reportPerAccess(b, 2*n)
}

// benchWriteCommit: reads and writes the same n lines, so commit locks n
// write lines and validates an n-line read set against them — the case
// where a nested validation loop goes quadratic.
func benchWriteCommit(b *testing.B, n int, host bool) {
	th, addrs := setup(n, host)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustCommit(b, th, func(tx *htm.Tx) {
			for _, a := range addrs {
				tx.Load(a)
			}
			for j, a := range addrs {
				tx.Store(a+1, uint64(j))
			}
		})
	}
	reportPerAccess(b, 2*n)
}

// reportPerAccess adds a ns/access metric (transaction ns/op divided by the
// number of transactional accesses) so different set sizes are comparable
// at a glance.
func reportPerAccess(b *testing.B, accesses int) {
	if b.N > 0 && accesses > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*accesses), "ns/access")
	}
}
