package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/id"
	"repro/internal/peer"
	"repro/internal/sampling"
)

// referenceMessage is createMessage's entry selection written the plain
// way: an insertion-ordered dedup set over self, leaf set, samples and
// table, minus the destination, fully sorted by ring distance (ID
// tie-break) and truncated to C entries plus at most a full table.
// It also returns the union size and whether the union held q, for the
// test's coverage accounting.
func referenceMessage(n *Node, q id.ID, samples []peer.Descriptor) ([]peer.Descriptor, int, bool) {
	var union peer.Set
	union.Add(n.self)
	union.AddAll(n.leaf.Successors())
	union.AddAll(n.leaf.Predecessors())
	union.AddAll(samples)
	if !n.cfg.DisablePrefixFeedback {
		union.AddAll(n.table.Entries())
	}
	known := union.Contains(q)
	union.Remove(q)
	nBase := min(n.cfg.C, union.Len())
	nExtra := 0
	if !n.cfg.DisablePrefixFeedback {
		nExtra = min(union.Len()-nBase, n.cfg.TableCapacity())
	}
	out := union.Copy()
	peer.SortByRingDistance(out, q)
	return out[:nBase+nExtra], union.Len(), known
}

// messageWorld draws the IDs a randomized message-construction case is
// built from, around the destination q: uniform IDs, equidistant pairs
// q±d (near and far), the antipode q+2^63, and — on request — q itself.
func messageWorld(rng *rand.Rand, q id.ID, size int, withQ bool) []id.ID {
	ids := make([]id.ID, 0, size+8)
	for len(ids) < size {
		switch rng.Intn(4) {
		case 0:
			d := uint64(1 + rng.Intn(1<<10))
			if rng.Intn(2) == 0 {
				d = rng.Uint64() >> 1
			}
			ids = append(ids, q+id.ID(d), q-id.ID(d))
		default:
			ids = append(ids, id.ID(rng.Uint64()))
		}
	}
	ids = append(ids, q+id.ID(1<<63))
	if withQ {
		ids = append(ids, q)
	}
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return ids
}

// pick returns descriptors for a random subset of ids (repeats allowed),
// addressed from base so that the same ID reaches different sources with
// different addresses.
func pick(rng *rand.Rand, ids []id.ID, n int, base peer.Addr) []peer.Descriptor {
	out := make([]peer.Descriptor, n)
	for i := range out {
		out[i] = peer.Descriptor{ID: ids[rng.Intn(len(ids))], Addr: base + peer.Addr(i)}
	}
	return out
}

// TestCreateMessageMatchesSetReference pins the sort-once message path to
// the insertion-set reference entry for entry, addresses included, over
// randomized nodes: duplicates across (and within) sources with differing
// addresses, equidistant q±d pairs, the antipode, q present and absent,
// the no-feedback ablation, a union larger than C plus a full table, and
// both the Sample and AppendSample draw paths.
func TestCreateMessageMatchesSetReference(t *testing.T) {
	small := DefaultConfig()
	small.B, small.K, small.C, small.CR = 2, 1, 4, 160
	noFeedback := DefaultConfig()
	noFeedback.DisablePrefixFeedback = true
	cfgs := map[string]Config{"default": DefaultConfig(), "no-feedback": noFeedback, "small-table": small}

	// Every case the order must survive is counted, so a generator change
	// that stops producing one fails loudly instead of passing vacuously.
	var truncated, qKnown, qUnknown, antipode, equidistant, addrConflict int
	rng := rand.New(rand.NewSource(13))
	for name, cfg := range cfgs {
		limit := cfg.C
		if !cfg.DisablePrefixFeedback {
			limit += cfg.TableCapacity()
		}
		for trial := 0; trial < 150; trial++ {
			q := id.ID(rng.Uint64())
			ids := messageWorld(rng, q, 20+rng.Intn(300), trial%2 == 0)
			self := peer.Descriptor{ID: ids[rng.Intn(len(ids))], Addr: 1 << 20}
			if trial%5 == 0 {
				self.ID = id.ID(rng.Uint64())
			}
			leaf := pick(rng, ids, 2*cfg.C+rng.Intn(60), 1000)
			table := pick(rng, ids, rng.Intn(400), 2000)
			samples := pick(rng, ids, cfg.CR+rng.Intn(40), 3000)
			useOracle := trial%3 == 0
			var sampler, refSampler sampling.Service = sampling.Fixed(samples), sampling.Fixed(samples)
			if useOracle {
				seed := rng.Int63()
				sampler, refSampler = sampling.NewOracle(samples, seed), sampling.NewOracle(samples, seed)
			}
			n, err := NewNode(self, cfg, sampler)
			if err != nil {
				t.Fatal(err)
			}
			n.leaf.Update(leaf)
			n.table.AddAll(table)
			later := make(map[id.ID]peer.Addr)
			for _, d := range append(slices.Clone(samples), table...) {
				later[d.ID] = d.Addr
			}

			for call := 0; call < 3; call++ {
				dst := q
				if call > 0 {
					dst = ids[rng.Intn(len(ids))]
				}
				want, u, known := referenceMessage(n, dst, refSampler.Sample(cfg.CR))
				m := n.createMessage(peer.Descriptor{ID: dst, Addr: 7}, true)
				if !slices.Equal(m.Entries, want) {
					t.Fatalf("%s trial %d call %d (oracle=%v, q=%v): message diverged from reference\ngot  %v\nwant %v",
						name, trial, call, useOracle, dst, m.Entries, want)
				}
				m.Recycle()

				if u > limit {
					truncated++
				}
				if known {
					qKnown++
				} else {
					qUnknown++
				}
				for i, d := range want {
					if d.ID == dst+id.ID(1<<63) {
						antipode++
					}
					if i > 0 && id.CompareRing(dst, want[i-1].ID, d.ID) == 0 {
						equidistant++
					}
					if a, ok := later[d.ID]; ok && a != d.Addr {
						addrConflict++
					}
				}
			}
		}
	}
	for what, count := range map[string]int{
		"union beyond the message bound": truncated, "destination known to the sender": qKnown,
		"destination unknown to the sender": qUnknown,
		"antipode shipped":                  antipode, "equidistant pair shipped": equidistant,
		"duplicate ID with a different address": addrConflict,
	} {
		if count == 0 {
			t.Errorf("no case covered: %s", what)
		}
	}
}
