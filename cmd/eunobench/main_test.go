package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"eunomia"
	"eunomia/internal/workload"
)

func TestArtifactMissingFileIsFreshSuite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_new.json")
	a, err := loadArtifact(path, "Suite", "note")
	if err != nil {
		t.Fatal(err)
	}
	if a.Suite != "Suite" || a.Note != "note" || len(a.Runs) != 0 {
		t.Fatalf("fresh artifact = %+v", a)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("loading created the file (stat err %v)", err)
	}
	if err := a.record("first", newStamp("first")); err != nil {
		t.Fatal(err)
	}
	b, err := loadArtifact(path, "other", "other")
	if err != nil {
		t.Fatal(err)
	}
	if b.Suite != "Suite" || b.Note != "note" || len(b.Runs) != 1 {
		t.Fatalf("an existing file must keep its own header and runs, got %+v", b)
	}
}

// A corrupt artifact is an error at load time — which every subcommand
// does before it measures anything.
func TestArtifactCorruptFileFailsAtLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_bad.json")
	if err := os.WriteFile(path, []byte(`{"suite": "x", "runs": [`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadArtifact(path, "x", ""); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("corrupt artifact loaded; err = %v", err)
	}
}

func TestArtifactSameLabelReplaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_x.json")
	type run struct {
		runStamp
		N float64 `json:"n"`
	}
	record := func(label string, n float64) {
		t.Helper()
		a, err := loadArtifact(path, "x", "")
		if err != nil {
			t.Fatal(err)
		}
		if err := a.record(label, run{runStamp{Label: label}, n}); err != nil {
			t.Fatal(err)
		}
	}
	record("a", 1)
	record("b", 0.1)
	first, _ := os.ReadFile(path)
	record("b", 0.2)
	second, _ := os.ReadFile(path)
	if want := bytes.Replace(first, []byte("0.1"), []byte("0.2"), 1); !bytes.Equal(second, want) {
		t.Fatalf("re-recording label b changed more than run b:\n%s\nwant:\n%s", second, want)
	}
	record("a", 3)
	a, err := loadArtifact(path, "x", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Runs) != 2 || !bytes.Contains(a.Runs[0], []byte(`"b"`)) || !bytes.Contains(a.Runs[1], []byte(`"n": 3`)) {
		t.Fatalf("replacing a: runs = %s", a.Runs)
	}
}

// The checked-in artifacts load, and recording a run leaves every byte
// of the header and of the runs already there as it was.
func TestArtifactCheckedInFilesRoundTrip(t *testing.T) {
	const tail = "\n  ]\n}\n"
	for _, name := range []string{"BENCH_emulator.json", "BENCH_swarm.json"} {
		orig, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
		a, err := loadArtifact(path, "", "")
		if err != nil {
			t.Fatal(err)
		}
		if a.Suite == "" || len(a.Runs) == 0 {
			t.Fatalf("%s: suite %q with %d runs", name, a.Suite, len(a.Runs))
		}
		if err := a.record("main_test", newStamp("main_test")); err != nil {
			t.Fatal(err)
		}
		got, _ := os.ReadFile(path)
		if kept := bytes.TrimSuffix(orig, []byte(tail)); len(kept) == len(orig) || !bytes.HasPrefix(got, kept) {
			t.Errorf("%s: recording a run rewrote the runs already in the file", name)
		}
	}
}

// tinyCluster is a non-durable 2-shard host cluster holding keys 1..n.
func tinyCluster(t *testing.T, n uint64) *eunomia.Cluster {
	t.Helper()
	c, err := eunomia.OpenCluster(eunomia.ClusterOptions{
		Shards: 2,
		Shard:  eunomia.Options{ArenaWords: 1 << 18, Backend: eunomia.Host},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	sess := c.NewSession()
	defer sess.Close()
	for k := uint64(1); k <= n; k++ {
		if err := sess.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestOpenLoopAccounting(t *testing.T) {
	const keys = 1000
	c := tinyCluster(t, keys)
	var fired, observed atomic.Int64
	eventBucket := -1
	l := openLoop{
		c: c, dur: 200 * time.Millisecond, offered: 20_000, seed: 1, next: swarmOps(keys),
		done: func(op workload.Op, b int) { observed.Add(1) },
		event: func(bucket func() int) {
			time.Sleep(50 * time.Millisecond)
			fired.Add(1)
			eventBucket = bucket()
		},
	}
	res := l.run()
	if res.arrivals == 0 || res.completed == 0 {
		t.Fatalf("nothing ran: %+v", res)
	}
	if res.arrivals != res.completed+res.errors+res.dropped {
		t.Errorf("arrivals %d != completed %d + errors %d + dropped %d",
			res.arrivals, res.completed, res.errors, res.dropped)
	}
	var ok, timed uint64
	for b := range res.ok {
		ok += res.ok[b]
		timed += res.sojourn[b].Count()
	}
	if len(res.ok) != l.buckets() || ok != res.completed {
		t.Errorf("timeline of %d buckets sums to %d, want %d buckets summing to completed = %d",
			len(res.ok), ok, l.buckets(), res.completed)
	}
	if timed != res.completed+res.errors {
		t.Errorf("%d sojourn samples for %d executed ops", timed, res.completed+res.errors)
	}
	if uint64(observed.Load()) != res.completed {
		t.Errorf("observer saw %d completions of %d", observed.Load(), res.completed)
	}
	if fired.Load() != 1 || eventBucket < 0 || eventBucket >= l.buckets() {
		t.Errorf("mid-run event fired %d times, in bucket %d", fired.Load(), eventBucket)
	}
	if good, p99 := res.window(0, len(res.ok)); good <= 0 || p99 == 0 {
		t.Errorf("whole-run window: goodput %f p99 %d", good, p99)
	}
}

func TestOpenLoopZeroRateOffersNothing(t *testing.T) {
	const keys = 100
	l := openLoop{c: tinyCluster(t, keys), dur: 30 * time.Millisecond, seed: 1, next: swarmOps(keys)}
	if res := l.run(); res.arrivals+res.completed+res.errors+res.dropped != 0 {
		t.Fatalf("offered rate 0 produced %+v", res)
	}
}

func TestCalibrateMeasuresCapacity(t *testing.T) {
	const keys = 1000
	if got := calibrate(tinyCluster(t, keys), 1, reshardOps(keys)); got <= 0 {
		t.Fatalf("closed-loop capacity = %f ops/s", got)
	}
}

// The usage line and the subcommand table name the same commands.
func TestUsageListsEverySubcommand(t *testing.T) {
	line := usageLine()
	listed := strings.Split(line[strings.Index(line, "<")+1:strings.Index(line, ">")], "|")
	var table []string
	inAll := 0
	for _, sc := range subcommands {
		if slices.Contains(table, sc.name) {
			t.Errorf("subcommand %q is in the table twice", sc.name)
		}
		table = append(table, sc.name)
		if sc.inAll {
			inAll++
		}
	}
	if !slices.Equal(listed, append(table, "all")) {
		t.Errorf("usage lists %v, the table has %v (+ all)", listed, table)
	}
	if inAll == 0 || inAll == len(subcommands) {
		t.Errorf("`all` runs %d of %d subcommands; it is the paper's figures only", inAll, len(subcommands))
	}
}
