package main

import (
	"testing"

	"eunomia"
)

// faultyHandle acknowledges but drops every 1000th put and answers every
// 1000th get with another key's value. With sticky set it also answers
// every get of the hottest key that way, so the wrong result is still
// there when the oracle rechecks it with the workers stopped.
type faultyHandle struct {
	eunomia.Handle
	sticky     bool
	puts, gets uint64
}

func (f *faultyHandle) Put(key, val uint64) error {
	if f.puts++; f.puts%1000 == 0 {
		return nil
	}
	return f.Handle.Put(key, val)
}

func (f *faultyHandle) Get(key uint64) (uint64, bool, error) {
	f.gets++
	if f.gets%1000 == 0 || (f.sticky && key == 1) {
		return preloadVal(key + 1), true, nil
	}
	return f.Handle.Get(key)
}

func quickConfig(t *testing.T) *config {
	return &config{seed: 1, seconds: 1, quick: true, trace: 0, outDir: t.TempDir(), threads: 1}
}

func runQuick(t *testing.T, name string, c *config) *result {
	t.Helper()
	wl, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runWorkload(wl, c)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// The benchmark must report wrong results, not pass or panic on them.
func TestOracleCountsInjectedFaults(t *testing.T) {
	t.Run("foreign get", func(t *testing.T) {
		c := quickConfig(t)
		c.wrap = func(h eunomia.Handle) eunomia.Handle { return &faultyHandle{Handle: h} }
		if res := runQuick(t, "point-skewed", c); res.failed == 0 {
			t.Fatalf("no failed op among %d with every 1000th get wrong", res.attempted)
		}
	})
	t.Run("foreign get, still wrong at rest", func(t *testing.T) {
		c := quickConfig(t)
		c.wrap = func(h eunomia.Handle) eunomia.Handle { return &faultyHandle{Handle: h, sticky: true} }
		if res := runQuick(t, "point-skewed", c); res.layer["handle.wrong_at_rest"] == 0 {
			t.Fatalf("no read wrong at rest among %d ops with every get of key 1 wrong", res.attempted)
		}
	})
	t.Run("dropped put", func(t *testing.T) {
		c := quickConfig(t)
		c.wrap = func(h eunomia.Handle) eunomia.Handle { return &faultyHandle{Handle: h} }
		// Only the owner of a key knows its last acknowledged state, so the
		// crash check of durable-write is what sees an acknowledged put
		// that never reached the store.
		if res := runQuick(t, "durable-write", c); res.failed == 0 {
			t.Fatalf("no failed op among %d with every 1000th put dropped", res.attempted)
		}
	})
}
