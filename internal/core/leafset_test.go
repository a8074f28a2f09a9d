package core

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/id"
	"repro/internal/peer"
)

func desc(n uint64) peer.Descriptor { return peer.Descriptor{ID: id.ID(n), Addr: peer.Addr(n % 10000)} }

func descs(ns ...uint64) []peer.Descriptor {
	out := make([]peer.Descriptor, len(ns))
	for i, n := range ns {
		out[i] = desc(n)
	}
	return out
}

func TestLeafSetBasicSelection(t *testing.T) {
	l := NewLeafSet(100, 4)
	l.Update(descs(101, 102, 103, 99, 98, 97))
	// c/2 = 2 closest successors: 101, 102; 2 closest predecessors: 99, 98.
	succ := l.Successors()
	pred := l.Predecessors()
	if len(succ) != 2 || succ[0].ID != 101 || succ[1].ID != 102 {
		t.Errorf("successors = %v", succ)
	}
	if len(pred) != 2 || pred[0].ID != 99 || pred[1].ID != 98 {
		t.Errorf("predecessors = %v", pred)
	}
}

func TestLeafSetIgnoresSelfAndDuplicates(t *testing.T) {
	l := NewLeafSet(100, 4)
	l.Update(descs(100, 101, 101, 102))
	if l.Contains(100) {
		t.Error("leaf set contains self")
	}
	if l.Len() != 2 {
		t.Errorf("len = %d, want 2", l.Len())
	}
}

func TestLeafSetTopUpFromOtherDirection(t *testing.T) {
	// Only successors exist: the set must fill with c closest successors.
	l := NewLeafSet(100, 4)
	l.Update(descs(101, 102, 103, 104, 105))
	if l.Len() != 4 {
		t.Fatalf("len = %d, want 4", l.Len())
	}
	ids := make(map[id.ID]bool)
	for _, d := range l.Slice() {
		ids[d.ID] = true
	}
	for _, want := range []id.ID{101, 102, 103, 104} {
		if !ids[want] {
			t.Errorf("missing %d from topped-up set %v", want, l.Slice())
		}
	}
}

func TestLeafSetUpdateImproves(t *testing.T) {
	l := NewLeafSet(100, 4)
	l.Update(descs(200, 300, 50, 40))
	if changed := l.Update(descs(101, 99)); !changed {
		t.Error("closer peers should change the set")
	}
	if !l.Contains(101) || !l.Contains(99) {
		t.Error("closest peers evicted")
	}
	if changed := l.Update(descs(5000, 6000)); changed {
		t.Error("far peers should not change a set of closer peers")
	}
}

func TestLeafSetUpdateNoNewInfo(t *testing.T) {
	l := NewLeafSet(100, 4)
	l.Update(descs(101, 99))
	if l.Update(descs(101, 99, 100)) {
		t.Error("re-offering known peers reported a change")
	}
	if l.Update(nil) {
		t.Error("empty update reported a change")
	}
}

func TestLeafSetWraparound(t *testing.T) {
	top := ^uint64(0)
	l := NewLeafSet(id.ID(top-1), 4)
	l.Update(descs(top, 0, 1, top-2, top-3))
	// Successors of top-1 clockwise: top, 0, 1. Predecessors: top-2, top-3.
	succ := l.Successors()
	if len(succ) != 2 || succ[0].ID != id.ID(top) || succ[1].ID != 0 {
		t.Errorf("wraparound successors = %v", succ)
	}
	pred := l.Predecessors()
	if len(pred) != 2 || pred[0].ID != id.ID(top-2) || pred[1].ID != id.ID(top-3) {
		t.Errorf("wraparound predecessors = %v", pred)
	}
}

func TestLeafSetSortedByRingDistance(t *testing.T) {
	l := NewLeafSet(100, 6)
	l.Update(descs(103, 101, 98, 96, 110, 90))
	sorted := l.SortedByRingDistance()
	for i := 1; i < len(sorted); i++ {
		if id.CompareRing(100, sorted[i-1].ID, sorted[i].ID) > 0 {
			t.Fatalf("not sorted at %d: %v", i, sorted)
		}
	}
	if len(sorted) != l.Len() {
		t.Errorf("sorted len %d != len %d", len(sorted), l.Len())
	}
}

func TestLeafSetRemove(t *testing.T) {
	l := NewLeafSet(100, 4)
	l.Update(descs(101, 102, 99, 98))
	l.Remove(101)
	if l.Contains(101) || l.Len() != 3 {
		t.Errorf("remove failed: %v", l.Slice())
	}
	l.Remove(98)
	if l.Contains(98) || l.Len() != 2 {
		t.Errorf("remove failed: %v", l.Slice())
	}
}

// TestLeafSetMatchesReferenceSelection cross-checks the incremental Update
// against a brute-force reference: feed a random pool in random batches and
// compare with selecting directly from the whole pool.
func TestLeafSetMatchesReferenceSelection(t *testing.T) {
	f := func(seed int64, raw []uint64) bool {
		rng := rand.New(rand.NewSource(seed))
		self := id.ID(rng.Uint64())
		pool := make([]peer.Descriptor, 0, len(raw))
		seen := map[id.ID]bool{self: true}
		for _, v := range raw {
			if seen[id.ID(v)] {
				continue
			}
			seen[id.ID(v)] = true
			pool = append(pool, desc(v))
		}
		const c = 8
		l := NewLeafSet(self, c)
		// Feed in random batches.
		perm := rng.Perm(len(pool))
		for start := 0; start < len(perm); {
			n := 1 + rng.Intn(4)
			if start+n > len(perm) {
				n = len(perm) - start
			}
			batch := make([]peer.Descriptor, 0, n)
			for _, pi := range perm[start : start+n] {
				batch = append(batch, pool[pi])
			}
			l.Update(batch)
			start += n
		}
		// Reference: one-shot selection over everything.
		ref := NewLeafSet(self, c)
		ref.Update(pool)
		got := idsOf(l.Slice())
		want := idsOf(ref.Slice())
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func idsOf(ds []peer.Descriptor) []id.ID {
	out := make([]id.ID, len(ds))
	for i, d := range ds {
		out[i] = d.ID
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestLeafSetInvariants checks structural invariants after arbitrary update
// sequences: capacity respected, directions sorted, no self, no duplicates.
func TestLeafSetInvariants(t *testing.T) {
	f := func(seed int64, raw []uint64) bool {
		self := id.ID(seed)
		l := NewLeafSet(self, 10)
		for _, v := range raw {
			l.Update(descs(v, v+1, v*3))
		}
		if l.Len() > 10 {
			return false
		}
		if l.Contains(self) {
			return false
		}
		seen := make(map[id.ID]bool)
		for _, d := range l.Slice() {
			if seen[d.ID] {
				return false
			}
			seen[d.ID] = true
		}
		succ := l.Successors()
		for i := 1; i < len(succ); i++ {
			if id.Succ(self, succ[i-1].ID) >= id.Succ(self, succ[i].ID) {
				return false
			}
		}
		pred := l.Predecessors()
		for i := 1; i < len(pred); i++ {
			if id.Pred(self, pred[i-1].ID) >= id.Pred(self, pred[i].ID) {
				return false
			}
		}
		for _, d := range succ {
			if !id.IsSuccessor(self, d.ID) {
				return false
			}
		}
		for _, d := range pred {
			if id.IsSuccessor(self, d.ID) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// refLeafSet is the leaf-set update as it was written before the bounded
// merge: pool the current entries and the batch in an insertion-ordered
// dedup set, fully sort both directions, apply the half/spare rule, and
// report whether the kept IDs changed.
type refLeafSet struct {
	self       id.ID
	c          int
	succ, pred []peer.Descriptor
}

func (l *refLeafSet) Update(ds []peer.Descriptor) bool {
	var pool peer.Set
	pool.AddAll(l.succ)
	pool.AddAll(l.pred)
	added := false
	for _, d := range ds {
		if d.ID != l.self && pool.Add(d) {
			added = true
		}
	}
	if !added {
		return false
	}
	old := append(slices.Clone(l.succ), l.pred...)
	var succ, pred []peer.Descriptor
	for _, d := range pool.Slice() {
		if id.IsSuccessor(l.self, d.ID) {
			succ = append(succ, d)
		} else {
			pred = append(pred, d)
		}
	}
	slices.SortFunc(succ, func(a, b peer.Descriptor) int {
		return cmp.Compare(id.Succ(l.self, a.ID), id.Succ(l.self, b.ID))
	})
	slices.SortFunc(pred, func(a, b peer.Descriptor) int {
		return cmp.Compare(id.Pred(l.self, a.ID), id.Pred(l.self, b.ID))
	})
	half := l.c / 2
	nSucc := min(len(succ), half)
	nPred := min(len(pred), half)
	if spare := l.c - nSucc - nPred; spare > 0 {
		nSucc = min(len(succ), nSucc+spare)
	}
	if spare := l.c - nSucc - nPred; spare > 0 {
		nPred = min(len(pred), nPred+spare)
	}
	l.succ, l.pred = succ[:nSucc], pred[:nPred]
	if len(old) != nSucc+nPred {
		return true
	}
	for _, d := range append(slices.Clone(l.succ), l.pred...) {
		if !containsID(old, d.ID) {
			return true
		}
	}
	return false
}

// TestLeafSetUpdateReportsChange drives the bounded merge and the
// reference side by side over random batches — fresh IDs with repeats and
// conflicting addresses, batches of already-kept IDs, self-only batches,
// and interleaved removals — and requires the same return value and the
// same contents, addresses included. A batch that changes nothing must
// also leave the arena untouched.
func TestLeafSetUpdateReportsChange(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var unchanged int
	for trial := 0; trial < 200; trial++ {
		arena := peer.NewDescriptorArena()
		self := id.ID(rng.Uint64())
		c := 2 * (1 + rng.Intn(8))
		l := NewLeafSetIn(arena, self, c)
		ref := &refLeafSet{self: self, c: c}
		universe := make([]id.ID, 4+rng.Intn(60))
		for i := range universe {
			off := id.ID(rng.Uint64() >> uint(rng.Intn(64)))
			if rng.Intn(2) == 0 {
				off = -off
			}
			universe[i] = self + off
		}
		universe[0] = self + 1<<63 // the antipode counts as a successor
		for step := 0; step < 40; step++ {
			var batch []peer.Descriptor
			switch kind := rng.Intn(6); {
			case kind == 0: // self only
				for range 1 + rng.Intn(3) {
					batch = append(batch, peer.Descriptor{ID: self, Addr: peer.Addr(rng.Intn(100))})
				}
			case kind == 1 && l.Len() > 0: // IDs already kept, new addresses
				for _, d := range l.Slice() {
					batch = append(batch, peer.Descriptor{ID: d.ID, Addr: d.Addr + 1})
				}
				rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
			case kind == 2 && l.Len() > 0: // a removal first, as the failure detector does
				victim := l.Slice()[rng.Intn(l.Len())].ID
				l.Remove(victim)
				ref.succ = removeInPlace(ref.succ, victim)
				ref.pred = removeInPlace(ref.pred, victim)
				fallthrough
			default:
				for range rng.Intn(2 * c) {
					v := universe[rng.Intn(len(universe))]
					batch = append(batch, peer.Descriptor{ID: v, Addr: peer.Addr(rng.Intn(100))})
				}
				if rng.Intn(4) == 0 {
					batch = append(batch, peer.Descriptor{ID: self})
				}
			}
			before := arena.Outstanding()
			got, want := l.Update(batch), ref.Update(batch)
			if got != want {
				t.Fatalf("trial %d step %d: Update reported %v, reference %v (batch %v)", trial, step, got, want, batch)
			}
			if !slices.Equal(l.Successors(), ref.succ) || !slices.Equal(l.Predecessors(), ref.pred) {
				t.Fatalf("trial %d step %d: contents diverged\ngot  %v | %v\nwant %v | %v",
					trial, step, l.Successors(), l.Predecessors(), ref.succ, ref.pred)
			}
			if !got {
				unchanged++
				if after := arena.Outstanding(); after != before {
					t.Fatalf("trial %d step %d: no-op update moved arena.Outstanding() %d -> %d", trial, step, before, after)
				}
			}
		}
		l.Release()
		if n := arena.Outstanding(); n != 0 {
			t.Fatalf("trial %d: %d arena blocks outstanding after Release", trial, n)
		}
	}
	if unchanged == 0 {
		t.Error("no batch left the set unchanged")
	}
}

// TestLeafSetNoOpUpdateDrawsNoBlock: a fresh leaf set offered only its
// owner's descriptor (or nothing) stays empty and never touches the arena.
func TestLeafSetNoOpUpdateDrawsNoBlock(t *testing.T) {
	arena := peer.NewDescriptorArena()
	l := NewLeafSetIn(arena, 100, 4)
	if l.Update(descs(100, 100)) || l.Update(nil) {
		t.Error("self-only or empty update reported a change")
	}
	if n := arena.Outstanding(); n != 0 {
		t.Errorf("no-op updates drew %d arena blocks, want 0", n)
	}
}
