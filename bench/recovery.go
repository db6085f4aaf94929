package main

import (
	"fmt"
	"time"
)

// recoveryRun times crash recovery over fixed work: a fresh durable DB with
// automatic snapshots off takes 3 seeded puts per key of the ladder's key
// space, its disk is killed (unsynced bytes discarded) and rebooted, and a
// timed Open replays the log. Every key must then read back its last
// acknowledged value.
func recoveryRun(wl *workload, c *config, res *result) error {
	keys := c.ladderKeys()
	noSnap := *wl
	noSnap.snapshotBytes = 0
	st, err := noSnap.open(keys, wl.shape())
	if err != nil {
		return err
	}
	last := make([]uint64, keys)
	h := st.store.NewHandle()
	r := newRNG(c.seed, 1<<32)
	for n := uint64(0); n < 3*keys; n++ {
		key := r.intn(keys) + 1
		last[key-1] = putVal(key, n)
		if err := h.Put(key, last[key-1]); err != nil {
			return fmt.Errorf("recovery load: %w", err)
		}
	}
	h.Close()
	st.fses[0].Kill()
	_ = st.store.Close() // fails by design: its disk is dead
	st.fses[0].Reboot()

	t0 := time.Now()
	db, err := st.reopen()
	if err != nil {
		return fmt.Errorf("recovery open: %w", err)
	}
	res.layer["durable.recovery_s"] = time.Since(t0).Seconds()
	d := db.Metrics().Durability
	res.layer["durable.replayed_frames"] = float64(d.ReplayedFrames)
	res.layer["durable.snapshot_pairs"] = float64(d.SnapshotPairs)

	h = db.NewHandle()
	defer h.Close()
	for i, want := range last {
		res.attempted++
		if !holds(h, uint64(i)+1, want) {
			res.failed++
		}
	}
	return db.Close()
}
