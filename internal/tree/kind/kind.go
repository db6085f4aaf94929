// Package kind names the paper's four trees and is the one place a kind
// becomes a tree: eunomia.Open and the experiment harness both build
// through New.
package kind

import (
	"fmt"

	"eunomia/internal/core"
	"eunomia/internal/htm"
	"eunomia/internal/tree"
	"eunomia/internal/tree/htmtree"
	"eunomia/internal/tree/masstree"
)

// Kind selects a tree implementation.
type Kind int

// The four tree designs the paper evaluates.
const (
	// EunoBTree is the paper's contribution: two-region HTM transactions,
	// partitioned leaves, a conflict control module and adaptive
	// concurrency control.
	EunoBTree Kind = iota
	// HTMBTree is the conventional baseline: one monolithic HTM region
	// per operation.
	HTMBTree
	// Masstree is the fine-grained comparator with optimistic versioned
	// locks (no HTM).
	Masstree
	// HTMMasstree wraps the Masstree code in one HTM region per operation
	// with its locks elided.
	HTMMasstree
)

// fanout is the node fanout of the three non-Euno trees, the paper's 16.
const fanout = 16

// String returns the figure label for the kind.
func (k Kind) String() string {
	switch k {
	case EunoBTree:
		return "Euno-B+Tree"
	case HTMBTree:
		return "HTM-B+Tree"
	case Masstree:
		return "Masstree"
	case HTMMasstree:
		return "HTM-Masstree"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// New builds an empty tree of kind k on device h; euno configures it when
// k is EunoBTree and is ignored otherwise. Whether the trees' retry loops
// wait out a held fallback lock is the device's setting
// (htm.Config.LemmingWait), not the tree's. New panics on an invalid kind
// or Euno configuration.
func New(k Kind, h *htm.HTM, boot *htm.Thread, euno core.Config) tree.KV {
	switch k {
	case EunoBTree:
		return core.New(h, boot, euno)
	case HTMBTree:
		return htmtree.New(h, boot, fanout)
	case Masstree, HTMMasstree:
		return masstree.New(h, boot, fanout, k == HTMMasstree)
	default:
		panic(fmt.Sprintf("kind: unknown tree %v", k))
	}
}
