// Package checktrees binds the tree implementations to the internal/check
// harness. It lives outside internal/check (which must stay free of tree
// imports: the tree packages' own tests import treetest, and treetest
// imports check) and outside treetest (same cycle, other direction).
//
// The registry names appearing in EUNO_CHECK_REPRO lines resolve here, so
// a failure printed by any sweep can be replayed with:
//
//	EUNO_CHECK_REPRO='tree=<name>;wl=<workload>;fault=<spec>' \
//	    go test ./internal/check/trees/ -run TestRepro -v
package checktrees

import (
	"fmt"
	"sort"

	"eunomia/internal/check"
	"eunomia/internal/core"
	"eunomia/internal/htm"
	"eunomia/internal/tree"
	"eunomia/internal/tree/htmtree"
	"eunomia/internal/tree/masstree"
)

// tinyEuno is a deliberately split-heavy Euno geometry with the adaptive
// gate off (CCM always active): six live records force a split, so the
// stitch and CCM paths are exercised constantly even by small workloads.
func tinyEuno() core.Config {
	return core.Config{
		StableCap: 4, Segments: 2, SegCap: 1,
		PartLeaf: true, CCMLockBits: true, CCMMarkBits: true,
		Adaptive: false,
	}
}

// adaptTinyEuno is tinyEuno with the adaptive gate on and a threshold the
// first conflict abort reaches: leaves are born dense (one sorted run of up
// to twelve records), are promoted to the partitioned layout and demoted
// again many times in a history of a hundred operations, so the checker
// linearizes operations against both states of a leaf and both changes.
// (Its seeded mutant, a demotion that loses the segments' records, lives in
// internal/core's tests, where its switch can be reached.)
func adaptTinyEuno() core.Config {
	cfg := tinyEuno()
	cfg.Adaptive, cfg.HotThreshold = true, 1
	return cfg
}

// brokenEuno is tinyEuno with the lower region's seqno re-validation
// removed — the seeded mutant the checker must reject (see
// core.Config.DisableSeqnoCheck).
func brokenEuno() core.Config {
	cfg := tinyEuno()
	cfg.DisableSeqnoCheck = true
	return cfg
}

// Registry maps repro names to factories. Default-geometry entries match
// the tree's own Name(); -tiny entries shrink fanout for split pressure.
var Registry = map[string]check.Factory{
	"euno-btree": func(h *htm.HTM, boot *htm.Thread) tree.KV {
		return core.New(h, boot, core.DefaultConfig)
	},
	"euno-tiny": func(h *htm.HTM, boot *htm.Thread) tree.KV {
		return core.New(h, boot, tinyEuno())
	},
	"euno-adapt-tiny": func(h *htm.HTM, boot *htm.Thread) tree.KV {
		return core.New(h, boot, adaptTinyEuno())
	},
	"euno-broken": func(h *htm.HTM, boot *htm.Thread) tree.KV {
		return core.New(h, boot, brokenEuno())
	},
	"htm-btree": func(h *htm.HTM, boot *htm.Thread) tree.KV {
		return htmtree.New(h, boot, 16)
	},
	"htm-btree-tiny": func(h *htm.HTM, boot *htm.Thread) tree.KV {
		return htmtree.New(h, boot, 5)
	},
	"masstree": func(h *htm.HTM, boot *htm.Thread) tree.KV {
		return masstree.New(h, boot, 16, false)
	},
	"masstree-tiny": func(h *htm.HTM, boot *htm.Thread) tree.KV {
		return masstree.New(h, boot, 5, false)
	},
	"htm-masstree": func(h *htm.HTM, boot *htm.Thread) tree.KV {
		return masstree.New(h, boot, 16, true)
	},
	"htm-masstree-tiny": func(h *htm.HTM, boot *htm.Thread) tree.KV {
		return masstree.New(h, boot, 5, true)
	},
}

// Lookup resolves a repro tree name.
func Lookup(name string) (check.Factory, error) {
	if mk, ok := Registry[name]; ok {
		return mk, nil
	}
	names := make([]string, 0, len(Registry))
	for n := range Registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return nil, fmt.Errorf("checktrees: unknown tree %q (known: %v)", name, names)
}
