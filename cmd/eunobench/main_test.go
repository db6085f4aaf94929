package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
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
	// Every run names the cores it ran on.
	for _, field := range []string{`"gomaxprocs":`, `"num_cpu":`} {
		if !bytes.Contains(b.Runs[0], []byte(field)) {
			t.Fatalf("recorded run %s lacks %s", b.Runs[0], field)
		}
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
		Shard:  eunomia.Options{ArenaWords: 1 << 18},
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

// goldenCell is one cell of testdata/golden-<name>-quick.csv: in the
// table whose title line contains title, the row whose first cell is row,
// the column headed col.
func goldenCell(t *testing.T, name, title, row, col string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "golden-"+name+"-quick.csv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, table := range strings.Split(strings.TrimSpace(string(b)), "\n\n") {
		lines := strings.Split(table, "\n")
		if len(lines) < 2 || !strings.Contains(lines[0], title) {
			continue
		}
		c := slices.Index(strings.Split(lines[1], ","), col)
		for _, line := range lines[2:] {
			if cells := strings.Split(line, ","); cells[0] == row && c > 0 && c < len(cells) {
				return cells[c]
			}
		}
	}
	t.Fatalf("golden-%s-quick.csv has no cell %q/%q in a table titled %q", name, row, col, title)
	return ""
}

// cellMops is a throughput cell ("67.79M") in millions of operations per second.
func cellMops(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "M"), 64)
	if err != nil || !strings.HasSuffix(cell, "M") {
		t.Fatalf("throughput cell %q: %v", cell, err)
	}
	return v
}

// docText is file (relative to the repository root) with every run of
// white space one space, so a sentence reads the same however its lines
// are wrapped.
func docText(t *testing.T, file string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", file))
	if err != nil {
		t.Fatal(err)
	}
	return strings.Join(strings.Fields(string(b)), " ")
}

// The headline of EXPERIMENTS.md, and every README sentence that quotes a
// golden cell, state what the checked-in goldens say: each figure below is
// recomputed from a golden, and a re-baseline that moves it fails here
// until the prose moves with it.
func TestHeadlineMatchesGoldens(t *testing.T) {
	fig1 := func(theta, col string) string { return goldenCell(t, "fig1", "Figure 1", theta, col) }
	fig8 := func(name, theta, tree string) string { return goldenCell(t, name, "Figure 8", theta, tree) }
	adaptive := func(title string) string { return goldenCell(t, "fig13", title, "+Adaptive", "relative") }
	over := func(theta, tree string) float64 {
		return cellMops(t, fig8("fig8", theta, "Euno-B+Tree")) / cellMops(t, fig8("fig8", theta, tree))
	}
	times := func(r float64) string { return fmt.Sprintf("%.1f×", r) }
	ahead := func(r float64) string { return fmt.Sprintf("%+.0f %%", 100*(r-1)) }
	spaced := func(cell string) string { return strings.TrimSuffix(cell, "M") + " M" }
	// against states a fig8 ratio with the two cells it comes from.
	against := func(theta, tree string, ratio func(float64) string) string {
		return fmt.Sprintf("%s against %s at θ = %s (%s)", spaced(fig8("fig8", theta, "Euno-B+Tree")),
			spaced(fig8("fig8", theta, tree)), strings.TrimSuffix(theta, "0"), ratio(over(theta, tree)))
	}
	fig1Drop := cellMops(t, fig1("0.20", "throughput(ops/s)")) / cellMops(t, fig1("0.90", "throughput(ops/s)"))
	headline := []string{
		// Figure 1: the baseline's collapse.
		fmt.Sprintf("%s → %s at θ = 0.9 (%s)", spaced(fig1("0.20", "throughput(ops/s)")),
			spaced(fig1("0.90", "throughput(ops/s)")), times(fig1Drop)),
		fmt.Sprintf("%s aborts/op", fig1("0.90", "aborts/op")),
		// Figure 8: Euno-B+Tree against HTM-B+Tree and Masstree.
		against("0.90", "HTM-B+Tree", times), against("0.99", "HTM-B+Tree", times),
		against("0.20", "HTM-B+Tree", ahead),
		against("0.90", "Masstree", ahead), against("0.99", "Masstree", ahead),
		fmt.Sprintf("HTM-Masstree %s at θ = 0.9", spaced(fig8("fig8", "0.90", "HTM-Masstree"))),
		// Figure 9's baseline side is Figure 1's tree.
		fmt.Sprintf("%s → ", fig1("0.99", "aborts/op")),
		fmt.Sprintf("%s → ", fig1("0.90", "aborts/op")),
		// Figure 13: the full tree against the baseline.
		fmt.Sprintf("`+Adaptive` %s at θ = 0.9, %s at θ = 0.2",
			strings.Replace(adaptive("theta=0.9"), "x", "×", 1), strings.Replace(adaptive("theta=0.2"), "x", "×", 1)),
	}
	_, section, found := strings.Cut(docText(t, "EXPERIMENTS.md"), "## Headline results ")
	if !found {
		t.Fatal("EXPERIMENTS.md has no headline section")
	}
	section, _, _ = strings.Cut(section, " ## ")
	for _, want := range headline {
		if !strings.Contains(section, want) {
			t.Errorf("EXPERIMENTS.md's headline does not state %q, which the goldens give", want)
		}
	}

	readme := []string{
		fmt.Sprintf("%s HTM-B+Tree at θ = 0.9 and %s at θ = 0.99", times(over("0.90", "HTM-B+Tree")), times(over("0.99", "HTM-B+Tree"))),
	}
	// The lemming wait, quick fig8 on the fragile device → on the hardened one.
	for _, tree := range []string{"HTM-B+Tree", "HTM-Masstree", "Euno-B+Tree"} {
		readme = append(readme, fmt.Sprintf("%s %s → %s at θ = 0.9 and %s → %s at θ = 0.99", tree,
			spaced(fig8("fig8", "0.90", tree)), spaced(fig8("fig8-resilient", "0.90", tree)),
			spaced(fig8("fig8", "0.99", tree)), spaced(fig8("fig8-resilient", "0.99", tree))))
	}
	text := docText(t, "README.md")
	for _, want := range readme {
		if !strings.Contains(text, want) {
			t.Errorf("README.md does not state %q, which the goldens give", want)
		}
	}
}
