package core

import (
	"slices"
	"sync"

	"repro/internal/id"
	"repro/internal/peer"
)

// LeafSet holds a node's nearest neighbours in the ring of IDs: up to c/2
// closest successors and c/2 closest predecessors, the selection rule of
// the paper's UpdateLeafSet. When one direction cannot supply c/2 nodes,
// the set is topped up with the closest nodes from the other direction, so
// the set holds min(c, |known peers|) entries.
//
// Storage: both directions live in one capacity-c block — drawn from the
// network's DescriptorArena when one is configured — with succ and pred as
// views into it, so a leaf set costs a single allocation that churn can
// recycle whole (see peer.DescriptorArena for the ownership rules).
type LeafSet struct {
	self  id.ID
	c     int
	arena *peer.DescriptorArena
	block []peer.Descriptor // cap-c backing; succ and pred alias into it
	succ  []peer.Descriptor // ascending clockwise distance from self
	pred  []peer.Descriptor // ascending counter-clockwise distance from self
}

// NewLeafSet returns an empty heap-backed leaf set of capacity c for the
// given node.
func NewLeafSet(self id.ID, c int) *LeafSet {
	return NewLeafSetIn(nil, self, c)
}

// NewLeafSetIn returns an empty leaf set whose storage is drawn from the
// given arena (nil for plain heap allocation).
func NewLeafSetIn(arena *peer.DescriptorArena, self id.ID, c int) *LeafSet {
	return &LeafSet{self: self, c: c, arena: arena}
}

// leafScratch holds the per-direction merge buffers reused across Update
// calls. The pool is shared by every leaf set in the process (all updates
// run serialised per node; concurrent nodes draw distinct objects from the
// pool), which turns what would otherwise be per-node retained scratch
// into a handful of objects.
type leafScratch struct {
	succ, pred leafRun
}

var leafScratchPool = sync.Pool{New: func() any { return new(leafScratch) }}

// leafRun is one direction's merge buffer: descriptors in ascending order
// of directed distance from the owner, with the distances alongside.
type leafRun struct {
	ds   []peer.Descriptor
	dist []uint64
}

// reset loads the run with a direction's current entries.
func (r *leafRun) reset(ds []peer.Descriptor, dist func(id.ID) uint64) {
	r.ds = append(r.ds[:0], ds...)
	r.dist = r.dist[:0]
	for _, d := range ds {
		r.dist = append(r.dist, dist(d.ID))
	}
}

// insert adds d, at directed distance dd, keeping the run sorted and at
// most c long. Directed distance from a fixed origin is injective over
// IDs, so an equal distance means d is already present: the entry inserted
// first wins, as in an insertion-ordered set.
func (r *leafRun) insert(d peer.Descriptor, dd uint64, c int) {
	n := len(r.dist)
	if n == c && (c == 0 || dd >= r.dist[n-1]) {
		return
	}
	i, found := slices.BinarySearch(r.dist, dd)
	if found {
		return
	}
	if n < c {
		r.ds = append(r.ds, peer.Descriptor{})
		r.dist = append(r.dist, 0)
	}
	copy(r.ds[i+1:], r.ds[i:])
	copy(r.dist[i+1:], r.dist[i:])
	r.ds[i], r.dist[i] = d, dd
}

// Update merges the given descriptors into the leaf set and re-applies the
// selection rule. The node's own descriptor and duplicates are ignored.
// It reports whether the kept set changed; the storage is written (and, on
// first fill, drawn from the arena) only when it did.
//
// Each direction is merged into a run bounded at c entries — the most the
// top-up rule can keep from one side — so candidates farther than a full
// run's last entry are rejected in O(1) without sorting the batch.
func (l *LeafSet) Update(ds []peer.Descriptor) bool {
	sc := leafScratchPool.Get().(*leafScratch)
	defer leafScratchPool.Put(sc)
	succDist := func(x id.ID) uint64 { return id.Succ(l.self, x) }
	predDist := func(x id.ID) uint64 { return id.Pred(l.self, x) }
	succ, pred := &sc.succ, &sc.pred
	succ.reset(l.succ, succDist)
	pred.reset(l.pred, predDist)
	for _, d := range ds {
		switch {
		case d.ID == l.self:
		case id.IsSuccessor(l.self, d.ID):
			succ.insert(d, succDist(d.ID), l.c)
		default:
			pred.insert(d, predDist(d.ID), l.c)
		}
	}

	half := l.c / 2
	nSucc := min(len(succ.ds), half)
	nPred := min(len(pred.ds), half)
	// Top up from the other direction when one side is short.
	if spare := l.c - nSucc - nPred; spare > 0 {
		nSucc = min(len(succ.ds), nSucc+spare)
	}
	if spare := l.c - nSucc - nPred; spare > 0 {
		nPred = min(len(pred.ds), nPred+spare)
	}
	// Both runs are sorted by the same key as the stored directions, so
	// the kept set is unchanged exactly when the kept prefixes equal them.
	if slices.Equal(succ.ds[:nSucc], l.succ) && slices.Equal(pred.ds[:nPred], l.pred) {
		return false
	}
	// nSucc+nPred ≤ c by the spare arithmetic, so both directions fit the
	// single capacity-c block.
	if l.block == nil {
		l.block = l.arena.Get(l.c)
	}
	blk := append(l.block[:0], succ.ds[:nSucc]...)
	blk = append(blk, pred.ds[:nPred]...)
	l.succ = blk[0:nSucc:nSucc]
	l.pred = blk[nSucc : nSucc+nPred : nSucc+nPred]
	return true
}

func containsID(ds []peer.Descriptor, nodeID id.ID) bool {
	for _, d := range ds {
		if d.ID == nodeID {
			return true
		}
	}
	return false
}

// Release returns the backing block to the arena. The leaf set must not be
// used again by its current owner: the block may be handed to another
// node. Safe to call on a never-filled or already-released set.
func (l *LeafSet) Release() {
	if l.block != nil {
		l.arena.Put(l.block)
	}
	l.block, l.succ, l.pred = nil, nil, nil
}

// Len returns the number of descriptors currently held.
func (l *LeafSet) Len() int { return len(l.succ) + len(l.pred) }

// Capacity returns the configured leaf set size c.
func (l *LeafSet) Capacity() int { return l.c }

// Successors returns the kept successors, closest first. The slice is the
// internal storage; callers must not modify it.
func (l *LeafSet) Successors() []peer.Descriptor { return l.succ }

// Predecessors returns the kept predecessors, closest first. The slice is
// the internal storage; callers must not modify it.
func (l *LeafSet) Predecessors() []peer.Descriptor { return l.pred }

// Slice returns all leaf set descriptors (successors then predecessors) as
// a fresh slice.
func (l *LeafSet) Slice() []peer.Descriptor {
	out := make([]peer.Descriptor, 0, l.Len())
	out = append(out, l.succ...)
	out = append(out, l.pred...)
	return out
}

// Contains reports whether a descriptor with the given ID is in the set.
func (l *LeafSet) Contains(nodeID id.ID) bool {
	return containsID(l.succ, nodeID) || containsID(l.pred, nodeID)
}

// SortedByRingDistance returns the leaf set ordered by (undirected) ring
// distance from the node, closest first — the order used by SelectPeer.
// Successor/predecessor lists are already sorted, so this is a merge.
func (l *LeafSet) SortedByRingDistance() []peer.Descriptor {
	out := make([]peer.Descriptor, 0, l.Len())
	i, j := 0, 0
	for i < len(l.succ) && j < len(l.pred) {
		ds := id.Succ(l.self, l.succ[i].ID)
		dp := id.Pred(l.self, l.pred[j].ID)
		if ds <= dp {
			out = append(out, l.succ[i])
			i++
		} else {
			out = append(out, l.pred[j])
			j++
		}
	}
	out = append(out, l.succ[i:]...)
	out = append(out, l.pred[j:]...)
	return out
}

// Remove drops a descriptor (e.g. one detected as dead) from the set,
// compacting the affected direction in place.
func (l *LeafSet) Remove(nodeID id.ID) {
	l.succ = removeInPlace(l.succ, nodeID)
	l.pred = removeInPlace(l.pred, nodeID)
}

// removeInPlace deletes the entry with the given ID preserving order.
// Each direction holds distinct IDs, so one hit suffices.
func removeInPlace(ds []peer.Descriptor, nodeID id.ID) []peer.Descriptor {
	for i := range ds {
		if ds[i].ID == nodeID {
			copy(ds[i:], ds[i+1:])
			return ds[:len(ds)-1]
		}
	}
	return ds
}
