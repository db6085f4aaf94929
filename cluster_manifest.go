package eunomia

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"eunomia/internal/shard"
)

// This file is the one codec for the three manifests a durable cluster
// keeps in its root directory: the snapshot barrier, the committed
// topology, and the journal of an in-flight migration. Each is a text
// file — a header line in that file's one Sscanf format, then (barrier,
// reshard) one indexed line per shard or move — committed by commitFile
// and loaded by readRoot. A file that does not parse is an error naming
// the file, never a guess: stores carrying the pre-resharding barrier
// headers (v1, v2) are no longer readable.
const (
	barrierFile  = "cluster-barrier"
	topologyFile = "cluster-topology"
	reshardFile  = "cluster-reshard"
)

// commitFile writes name's content crash-atomically in the cluster root:
// tmp + fsync + rename + dir-fsync, the discipline every manifest here
// shares.
func (c *Cluster) commitFile(name, content string) error {
	tmp := c.dir + "/" + name + ".tmp"
	f, err := c.fs.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write([]byte(content))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = c.fs.Rename(tmp, c.dir+"/"+name)
	}
	if err != nil {
		c.fs.Remove(tmp)
		return err
	}
	return c.fs.SyncDir(c.dir)
}

// manifest is one root file's name, for errors, and its lines.
type manifest struct {
	name  string
	lines []string
}

// readRoot loads name from the cluster root and scans its header line in
// the file's one format. A file that does not exist is (nil, nil):
// nothing of that kind was ever committed.
func (c *Cluster) readRoot(name, format string, args ...any) (*manifest, error) {
	names, err := c.fs.List(c.dir)
	if err != nil || !slices.Contains(names, name) {
		return nil, err
	}
	f, err := c.fs.Open(c.dir + "/" + name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, err
	}
	m := &manifest{name, strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")}
	if _, err := fmt.Sscanf(m.lines[0], format, args...); err != nil {
		return nil, m.errorf("manifest header %q: %v", m.lines[0], err)
	}
	return m, nil
}

func (m *manifest) errorf(format string, args ...any) error {
	return fmt.Errorf("eunomia: "+m.name+": "+format, args...)
}

// body scans the i-th line after the header; its leading field, scanned
// into idx, must be i.
func (m *manifest) body(i int, format string, idx *int, args ...any) error {
	if i+1 >= len(m.lines) {
		return m.errorf("truncated at line %d", i)
	}
	if _, err := fmt.Sscanf(m.lines[i+1], format, append([]any{idx}, args...)...); err != nil || *idx != i {
		return m.errorf("line %q", m.lines[i+1])
	}
	return nil
}

// shape rejects shard counts no cluster can have (the barrier's exclusion
// set is a 64-bit mask) and decodes the header's partition code.
func (m *manifest) shape(part int, counts ...int) (shard.Partition, error) {
	for _, n := range counts {
		if n < 1 || n > 64 {
			return 0, m.errorf("shard count %d out of [1,64]", n)
		}
	}
	if part != int(shard.Hash) && part != int(shard.Range) {
		return 0, m.errorf("partition %d", part)
	}
	return shard.Partition(part), nil
}

// writeBarrier commits the barrier LSN vector. The header carries the
// topology epoch so a barrier taken before (or during) a reshard is
// interpretable after it completes; the exclusion set (Failed shards
// carried at their last known floor) rides in the same header.
func (c *Cluster) writeBarrier(vec []uint64, excluded uint64) error {
	id := c.snapID.Add(1)
	var b strings.Builder
	fmt.Fprintf(&b, "euno-cluster-barrier v3 id=%d epoch=%d shards=%d excluded=%d\n", id, c.table.Epoch(), len(vec), excluded)
	for i, lsn := range vec {
		fmt.Fprintf(&b, "%d %d\n", i, lsn)
	}
	return c.commitFile(barrierFile, b.String())
}

// barrierInfo is a parsed barrier manifest: the durable-LSN floor vector
// and the topology epoch it was taken under.
type barrierInfo struct {
	vec   []uint64
	epoch uint64
}

// readBarrier loads the barrier manifest; (nil, nil) when no barrier has
// ever committed, so there is nothing to verify against. Verification
// decides what a shard-count difference means, not the parser.
func (c *Cluster) readBarrier() (*barrierInfo, error) {
	var id, excluded uint64
	var n int
	info := &barrierInfo{}
	m, err := c.readRoot(barrierFile, "euno-cluster-barrier v3 id=%d epoch=%d shards=%d excluded=%d", &id, &info.epoch, &n, &excluded)
	if m == nil {
		return nil, err
	}
	if _, err := m.shape(int(shard.Hash), n); err != nil { // no partition in a barrier
		return nil, err
	}
	info.vec = make([]uint64, n)
	for i := range info.vec {
		var idx int
		if err := m.body(i, "%d %d", &idx, &info.vec[i]); err != nil {
			return nil, err
		}
	}
	if id > c.snapID.Load() {
		c.snapID.Store(id)
	}
	return info, nil
}

// writeTopology commits the stable topology record.
func (c *Cluster) writeTopology(epoch uint64, shards int, part shard.Partition) error {
	return c.commitFile(topologyFile,
		fmt.Sprintf("euno-cluster-topology v1 epoch=%d shards=%d part=%d\n", epoch, shards, int(part)))
}

// topologyRecord is the parsed topology file.
type topologyRecord struct {
	epoch  uint64
	shards int
	part   shard.Partition
}

// readTopology loads the topology record; (nil, nil) when none exists
// (only before a durable cluster's first open has finished).
func (c *Cluster) readTopology() (*topologyRecord, error) {
	rec := &topologyRecord{}
	var part int
	m, err := c.readRoot(topologyFile, "euno-cluster-topology v1 epoch=%d shards=%d part=%d", &rec.epoch, &rec.shards, &part)
	if m == nil {
		return nil, err
	}
	rec.part, err = m.shape(part, rec.shards)
	return rec, err
}

// reshardManifest is the parsed migration journal.
type reshardManifest struct {
	epoch    uint64
	from, to int
	part     shard.Partition
	cut      int
	purged   int
}

// writeReshardManifest journals the migration at the given watermarks.
// The per-move lines are derivable from the header (the watermarks fix
// every state) but make a half-dead cluster legible from the shell.
func (c *Cluster) writeReshardManifest(m *migration, cut, purged int) error {
	var b strings.Builder
	fmt.Fprintf(&b, "euno-cluster-reshard v1 epoch=%d from=%d to=%d part=%d cut=%d purged=%d moves=%d\n",
		c.table.Epoch(), m.from.Shards(), m.to.Shards(), int(m.from.Partition()), cut, purged, len(m.moves))
	for i, mv := range m.moves {
		fmt.Fprintf(&b, "move %d src=%d dst=%d lo=%d hi=%d state=%s\n",
			i, mv.Src, mv.Dst, mv.Lo, mv.Hi, shard.StateAt(i, cut, purged))
	}
	return c.commitFile(reshardFile, b.String())
}

// readReshardManifest loads the migration journal; (nil, nil) when none
// exists.
func (c *Cluster) readReshardManifest() (*reshardManifest, error) {
	man := &reshardManifest{}
	var part, moves int
	m, err := c.readRoot(reshardFile, "euno-cluster-reshard v1 epoch=%d from=%d to=%d part=%d cut=%d purged=%d moves=%d",
		&man.epoch, &man.from, &man.to, &part, &man.cut, &man.purged, &moves)
	if m == nil {
		return nil, err
	}
	if man.part, err = m.shape(part, man.from, man.to); err != nil {
		return nil, err
	}
	if man.cut < 0 || man.cut > moves || man.purged < 0 || man.purged > man.cut {
		return nil, m.errorf("inconsistent watermarks cut=%d purged=%d moves=%d", man.cut, man.purged, moves)
	}
	for i := 0; i < moves; i++ {
		var mi, src, dst int
		var lo, hi uint64
		var state string
		if err := m.body(i, "move %d src=%d dst=%d lo=%d hi=%d state=%s", &mi, &src, &dst, &lo, &hi, &state); err != nil {
			return nil, err
		}
		if _, err := shard.ParseMoveState(state); err != nil {
			return nil, m.errorf("%v", err)
		}
	}
	return man, nil
}
