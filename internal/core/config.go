// Package core implements Euno-B+Tree, the paper's contribution: a
// concurrent B+Tree that stays scalable under contention by applying the
// four Eunomia design guidelines (Section 3):
//
//  1. Split HTM regions. Every get/put/delete runs as two transactions —
//     an upper region that traverses the index and samples the target
//     leaf's sequence number, and a lower region that operates on the leaf
//     after re-validating that number (Algorithm 2). A leaf-level conflict
//     now retries only the lower region; only a split (seqno change) forces
//     a retry from the root.
//
//  2. Partitioned leaf layout. A leaf stores records in S line-aligned
//     *segments* (sorted within a segment, unsorted across) plus a sorted
//     *stable region* that absorbs segment overflow; puts are scattered
//     across segments so adjacent records no longer share cache lines
//     (Section 4.1, Algorithm 3). A key's copy lives in the segment its
//     stable position names, so every lower region but a rewrite reads
//     one segment, not all S (see the deviations).
//
//  3. Conflict control module (CCM). Outside the HTM regions each leaf
//     carries per-key-slot advisory lock bits that serialize same-record
//     writers before they can conflict inside a transaction, and counting
//     mark slots (a counting Bloom filter) that turn away requests for
//     absent keys (Figure 5).
//
//  4. Adaptive concurrency control. A per-leaf contention detector lets
//     cold leaves bypass the CCM entirely, removing its overhead under low
//     contention (and, here, the partitioned layout's: see the deviations).
//
// Documented deviations from the paper's prose, with reasons:
//
//   - The paper's write scheduler picks a segment at random, so a reader
//     must search every segment, and any put to the leaf aborts every
//     reader in flight on it; it can also insert one new key into two
//     segments when two threads race past a bypassed CCM (the paper's
//     proof sketch quietly relies on the lock bits for this case). Here a
//     key's copy lives in its *home*: segment i % S, where i is the key's
//     slot in the sorted stable run or its insertion point there (segOf).
//     A get, put or delete runs the stable search first and then reads,
//     writes or removes in that one segment only. This is sound because
//     the stable run of a partitioned leaf changes only in writeLeaf,
//     which empties every segment in the same region, and a delete's
//     tombstone moves no index: every copy always sits in the home its
//     key's current stable position names. Two puts of one key meet in
//     one segment line, so the placement needs no lock bit to keep a key
//     single; neighbouring keys still scatter across segments.
//
//   - Mark "bits" are 4-bit saturating counters so deletion cannot create
//     false negatives under hash collisions (clearing a plain bit, as the
//     paper describes, is unsound).
//
//   - After a split, the old leaf's mark slots are left as a superset
//     (stale marks for moved keys) rather than rebuilt, because a rebuild
//     outside the transaction races with concurrent insertions; supersets
//     only cost false positives. The new leaf's marks are computed inside
//     the split transaction, if it comes out partitioned.
//
//   - Scans do not lock the leaf (Section 4.2.4 locks every scanned leaf
//     while it merge-sorts the segments into that leaf's reserved keys).
//     The lock guarded the shared reserved-keys buffer; ours is the
//     scanning thread's own scratch, and the lower region that fills it is
//     atomic on its own, so one region reads up to scanLeaves adjacent
//     leaves as a single snapshot (Scan, scanLeaf) and a scan leaves the
//     CCM line and the arena's accounting untouched. The advisory lock
//     still serializes compactions and splits.
//
//   - The paper bypasses the CCM on cold leaves; we also densify them: a
//     leaf is one sorted run over all its data lines until the detector
//     finds it hot, is then rewritten partitioned, and goes back once its
//     score has decayed to nothing (leaf.go). The score counts conflict
//     aborts only, and a hot leaf keeps no more records than its segments
//     can shadow. Adaptive off restores the paper's leaf exactly.
//
//   - A dense leaf keeps no marks and no tombstones: its puts read and
//     bump no mark, and its delete shifts the run left instead of
//     tombstoning, so it counts nothing towards a rebalance. The rewrite
//     that partitions a leaf adds its records to the marks, which are
//     never overwritten, and a demotion moves the seqno, so a mark read on
//     a leaf that stopped being partitioned is retried (DESIGN.md §5.2).
//
//   - The paper re-runs the upper region for every operation. Here a get,
//     put, delete or a scan's first leaf first asks the tree's lossy leaf
//     directory (Tree.locate), and goes straight to the lower region when
//     the leaf it names, or one up to dirHops links on, has fences covering
//     the key; the lower region re-validates them with the seqno.
//
//   - Gets take no lock bit (two gets of one record never conflict): a get
//     waits until its slot's bit is clear (awaitSlot), then runs its lower
//     region. It waits rather than skips because on RTM a read into an
//     in-flight put's write set aborts the put, which TL2 detects only at
//     commit: skipping would bank a gain real hardware would not give.
package core

import "fmt"

// Config selects the Euno-B+Tree geometry and which Eunomia design
// guidelines are active; the flags give the Figure 13 ablation chain.
type Config struct {
	// StableCap is the capacity (in records) of the sorted stable region —
	// the B+Tree fanout in the paper's terms. 4..32.
	StableCap int
	// Segments and SegCap shape the partitioned insert area: Segments
	// line-aligned segments of SegCap records each. Ignored when PartLeaf
	// is false.
	Segments int
	SegCap   int

	// PartLeaf enables the partitioned leaf layout (+Part Leaf). When
	// false a leaf is just the sorted stable region, and inserts shift it
	// in place inside the lower region (+Split HTM configuration).
	PartLeaf bool
	// CCMLockBits enables the per-slot advisory lock bits (+CCM lockbits),
	// which writers take and gets wait out.
	CCMLockBits bool
	// CCMMarkBits enables the counting mark slots (+CCM markbits).
	CCMMarkBits bool
	// Adaptive enables the per-leaf contention detector that bypasses the
	// CCM on cold leaves and keeps them dense (+Adaptive).
	Adaptive bool

	// HotThreshold is the contention score at which a leaf is considered
	// hot and promoted (the score decays on sampled conflict-free
	// operations).
	HotThreshold uint64
	// RebalanceThreshold is the number of tombstones a leaf accumulates
	// before a delete triggers compaction (Section 4.2.4: "we do the
	// re-balance when the number of delete operations exceeds a
	// threshold"). 0 keeps the default.
	RebalanceThreshold uint64

	// DisableSeqnoCheck deliberately breaks the tree by skipping the lower
	// region's sequence-number re-validation. It exists solely as the
	// mutation self-test for the linearizability checker (internal/check):
	// the checker must reject this configuration. Never set it otherwise.
	DisableSeqnoCheck bool
}

// DefaultConfig is the full Euno-B+Tree ("+Adaptive" column of Figure 13):
// every guideline enabled, fanout 16 as in the paper's Section 5.7.
var DefaultConfig = Config{
	StableCap:          16,
	Segments:           4,
	SegCap:             3,
	PartLeaf:           true,
	CCMLockBits:        true,
	CCMMarkBits:        true,
	Adaptive:           true,
	HotThreshold:       24,
	RebalanceThreshold: 8,
}

// AblationConfigs returns the cumulative Figure 13 configurations in order:
// +Split HTM, +Part Leaf, +CCM lockbits, +CCM markbits, +Adaptive.
// (The Figure's "Baseline" is the monolithic htmtree.)
func AblationConfigs() []struct {
	Name string
	Cfg  Config
} {
	base := DefaultConfig
	mk := func(f func(*Config)) Config { c := base; f(&c); return c }
	return []struct {
		Name string
		Cfg  Config
	}{
		{"+Split HTM", mk(func(c *Config) { c.PartLeaf, c.CCMLockBits, c.CCMMarkBits, c.Adaptive = false, false, false, false })},
		{"+Part Leaf", mk(func(c *Config) { c.CCMLockBits, c.CCMMarkBits, c.Adaptive = false, false, false })},
		{"+CCM lockbits", mk(func(c *Config) { c.CCMMarkBits, c.Adaptive = false, false })},
		{"+CCM markbits", mk(func(c *Config) { c.Adaptive = false })},
		{"+Adaptive", base},
	}
}

// validate normalizes and checks the configuration.
func (c *Config) validate() error {
	if c.StableCap < 4 || c.StableCap > 32 {
		return fmt.Errorf("core: StableCap %d out of [4,32]", c.StableCap)
	}
	if !c.PartLeaf {
		c.Segments, c.SegCap = 0, 0
	} else {
		if c.Segments < 2 || c.Segments > 8 {
			return fmt.Errorf("core: Segments %d out of [2,8]", c.Segments)
		}
		if c.SegCap < 1 || c.SegCap > 7 {
			return fmt.Errorf("core: SegCap %d out of [1,7]", c.SegCap)
		}
		// A split distributes ceil((StableCap+Segments*SegCap+1)/2) live
		// records into each new leaf's stable region, so the segment area
		// must not exceed StableCap-1 or a full leaf could not split.
		if c.Segments*c.SegCap > c.StableCap-1 {
			return fmt.Errorf("core: Segments*SegCap = %d exceeds StableCap-1 = %d; a full leaf could not split",
				c.Segments*c.SegCap, c.StableCap-1)
		}
	}
	if c.HotThreshold == 0 {
		c.HotThreshold = DefaultConfig.HotThreshold
	}
	if c.RebalanceThreshold == 0 {
		c.RebalanceThreshold = DefaultConfig.RebalanceThreshold
	}
	return nil
}
