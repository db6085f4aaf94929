package eunomia

import (
	"reflect"
	"strings"
	"testing"

	"eunomia/internal/durable"
	"eunomia/internal/shard"
)

// The three manifests' bytes as the writers have always produced them (the
// barrier since its v3 header): a change to any of these is an on-disk
// format change.
const (
	goldenBarrier  = "euno-cluster-barrier v3 id=1 epoch=0 shards=2 excluded=2\n0 7\n1 9\n"
	goldenTopology = "euno-cluster-topology v1 epoch=3 shards=5 part=1\n"
	goldenReshard  = "euno-cluster-reshard v1 epoch=0 from=2 to=4 part=1 cut=2 purged=1 moves=3\n" +
		"move 0 src=0 dst=1 lo=4611686018427387904 hi=9223372036854775807 state=done\n" +
		"move 1 src=1 dst=2 lo=9223372036854775808 hi=13835058055282163711 state=cutover\n" +
		"move 2 src=1 dst=3 lo=13835058055282163712 hi=18446744073709551615 state=copying\n"
)

// The two barrier headers that preceded v3 (before resharding existed), no
// longer read.
const (
	retiredV1 = "euno-cluster-barrier" + " v1 id=1 shards=2\n"
	retiredV2 = "euno-cluster-barrier" + " v2 id=1 shards=2 excluded=0\n"
)

// TestManifestCodec: each writer produces exactly the golden bytes and its
// reader returns what was written; every malformed file — the two retired
// barrier headers among them — is an error that names the file.
func TestManifestCodec(t *testing.T) {
	fs := durable.NewMemFS(durable.FaultPlan{})
	c, err := OpenCluster(durableReshardOpts(fs, 2, HashPartition))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	read := map[string]func() (any, error){
		barrierFile:  func() (any, error) { return c.readBarrier() },
		topologyFile: func() (any, error) { return c.readTopology() },
		reshardFile:  func() (any, error) { return c.readReshardManifest() },
	}

	// A file that was never written is absent, not an error.
	for _, name := range []string{barrierFile, reshardFile} {
		if got, err := read[name](); err != nil || !reflect.ValueOf(got).IsNil() {
			t.Fatalf("%s before any write: %v, %v", name, got, err)
		}
	}

	mig := newMigration(shard.New(2, shard.Range), shard.New(4, shard.Range), 0, 0)
	for _, tc := range []struct {
		name, golden string
		write        func() error
		want         any
	}{
		{barrierFile, goldenBarrier,
			func() error { return c.writeBarrier([]uint64{7, 9}, 2) },
			&barrierInfo{vec: []uint64{7, 9}, epoch: 0}},
		{topologyFile, goldenTopology,
			func() error { return c.writeTopology(3, 5, shard.Range) },
			&topologyRecord{epoch: 3, shards: 5, part: shard.Range}},
		{reshardFile, goldenReshard,
			func() error { return c.writeReshardManifest(mig, 2, 1) },
			&reshardManifest{epoch: 0, from: 2, to: 4, part: shard.Range, cut: 2, purged: 1}},
	} {
		if err := tc.write(); err != nil {
			t.Fatalf("%s: write: %v", tc.name, err)
		}
		if got := string(fs.RawData("clusterdb/" + tc.name)); got != tc.golden {
			t.Errorf("%s: wrote\n%q\nwant\n%q", tc.name, got, tc.golden)
		}
		if got, err := read[tc.name](); err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: read back %+v, %v; want %+v", tc.name, got, err, tc.want)
		}
	}

	sub := strings.Replace
	for _, tc := range []struct{ what, name, content string }{
		{"empty file", barrierFile, ""},
		{"empty file", topologyFile, ""},
		{"empty file", reshardFile, ""},
		{"retired v1 header", barrierFile, retiredV1 + "0 0\n1 0\n"},
		{"retired v2 header", barrierFile, retiredV2 + "0 0\n1 0\n"},
		{"truncated body", barrierFile, "euno-cluster-barrier v3 id=1 epoch=0 shards=2 excluded=0\n0 7\n"},
		{"wrong line index", barrierFile, sub(goldenBarrier, "\n1 9", "\n2 9", 1)},
		{"shards=0", barrierFile, "euno-cluster-barrier v3 id=1 epoch=0 shards=0 excluded=0\n"},
		{"shards=65", barrierFile, sub(goldenBarrier, "shards=2", "shards=65", 1)},
		{"shards=0", topologyFile, sub(goldenTopology, "shards=5", "shards=0", 1)},
		{"shards=65", topologyFile, sub(goldenTopology, "shards=5", "shards=65", 1)},
		{"part=7", topologyFile, sub(goldenTopology, "part=1", "part=7", 1)},
		{"header of another file", topologyFile, goldenBarrier},
		{"to=65", reshardFile, sub(goldenReshard, "to=4", "to=65", 1)},
		{"part=7", reshardFile, sub(goldenReshard, "part=1", "part=7", 1)},
		{"cut > moves", reshardFile, sub(goldenReshard, "cut=2", "cut=4", 1)},
		{"purged > cut", reshardFile, sub(goldenReshard, "purged=1", "purged=3", 1)},
		{"unknown move state", reshardFile, sub(goldenReshard, "state=cutover", "state=limbo", 1)},
		{"wrong move index", reshardFile, sub(goldenReshard, "move 1 src", "move 5 src", 1)},
		{"truncated body", reshardFile, goldenReshard[:strings.Index(goldenReshard, "move 2")]},
	} {
		fs.SetRawData("clusterdb/"+tc.name, []byte(tc.content))
		got, err := read[tc.name]()
		if err == nil {
			t.Errorf("%s, %s: parsed as %+v", tc.name, tc.what, got)
		} else if !strings.Contains(err.Error(), tc.name) {
			t.Errorf("%s, %s: error does not name the file: %v", tc.name, tc.what, err)
		}
	}

	// A store carrying a retired barrier header does not open.
	fs.SetRawData("clusterdb/"+topologyFile, []byte("euno-cluster-topology v1 epoch=0 shards=2 part=0\n"))
	fs.Remove("clusterdb/" + reshardFile)
	fs.SetRawData("clusterdb/"+barrierFile, []byte(retiredV2+"0 0\n1 0\n"))
	c.Close()
	if _, err := OpenCluster(durableReshardOpts(fs, 2, HashPartition)); err == nil || !strings.Contains(err.Error(), "manifest header") {
		t.Fatalf("store with a v2 barrier opened: %v", err)
	}
}
