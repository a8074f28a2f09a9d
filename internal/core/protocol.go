package core

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/flat"
	"repro/internal/id"
	"repro/internal/peer"
	"repro/internal/proto"
	"repro/internal/sampling"
)

// ProtoID is the simnet protocol identifier conventionally used for the
// bootstrapping layer (the sampling layer uses 1).
const ProtoID proto.ProtoID = 2

// Message is one half of a bootstrap gossip exchange (paper Figure 2): a
// set of node descriptors optimised for the receiver, carrying the sender's
// own descriptor so the receiver can answer. Request messages ask for an
// answer built the same way.
//
// Ownership: a Message is owned by its receiver. Senders must not retain or
// mutate Entries/Dead after handing the message to an engine; conversely a
// receiver may read but must not rewrite the slices in place, because an
// engine that fans one message out to several receivers (broadcast,
// livenet) shares the backing arrays between deliveries.
//
// Messages travel as *Message and are pooled: the protocol sends pointers
// (boxing a pointer into the proto.Message interface allocates nothing)
// and implements proto.Recyclable, so an engine that retires a delivered
// or dropped message returns it — entries arena included — to the pool for
// the next createMessage. Code that keeps a message beyond Handle (tests,
// ad-hoc tooling) simply never recycles it, which is always safe.
type Message struct {
	Sender  peer.Descriptor
	Entries []peer.Descriptor
	Request bool
	// Dead carries death certificates — IDs the sender has evicted via
	// its failure detector. Only present when the eviction extension is
	// enabled; receivers adopt them as tombstones so departures
	// propagate like rumors instead of fighting gossip reinfection.
	Dead []id.ID
}

// WireSize reports the message size in descriptor units (the entries plus
// the sender descriptor; certificates are half a descriptor each).
func (m Message) WireSize() int { return len(m.Entries) + 1 + (len(m.Dead)+1)/2 }

// messagePool recycles Message values together with their Entries/Dead
// backing arrays — the pooled entries arena that removes the per-send
// slice allocation from the tick hot path.
var messagePool = sync.Pool{New: func() any { return new(Message) }}

var _ proto.Recyclable = (*Message)(nil)

// Recycle implements proto.Recyclable: the message returns to the shared
// pool and its backing arrays become the arena for a future send. Only an
// engine may call it, exactly once, once the message is fully retired.
func (m *Message) Recycle() {
	m.Sender = peer.Descriptor{}
	m.Request = false
	m.Entries = m.Entries[:0]
	m.Dead = m.Dead[:0]
	messagePool.Put(m)
}

// NewMessage returns an empty pooled Message ready to be filled — the
// decode-side counterpart of createMessage's pool draw. A transport that
// deserialises frames appends into the returned message's Entries/Dead
// arenas; once the engine retires the message (proto.Recyclable), the
// arena returns to the pool for the next decode, so steady-state decoding
// allocates nothing.
func NewMessage() *Message { return messagePool.Get().(*Message) }

// maxCertificates caps the death certificates attached per message.
const maxCertificates = 32

// Node is the bootstrap protocol state machine for one participant. It
// implements proto.Protocol; the same callbacks are driven by the
// concurrent livenet runtime.
type Node struct {
	cfg     Config
	self    peer.Descriptor
	sampler sampling.Service
	leaf    *LeafSet
	table   *PrefixTable

	// exchanges counts completed update rounds, for observability.
	exchanges int64

	// Failure-detector state (used only when cfg.EvictAfterMisses > 0):
	// the peer whose answer is outstanding, whether it answered,
	// consecutive unanswered requests per peer, local tombstones for
	// evicted peers (expiry tick), and the tick counter. The per-peer
	// tables are open-addressed (internal/flat) rather than built-in
	// maps: half the memory at 2^18+ nodes, and their iteration order —
	// which reaches the wire via death certificates — is deterministic.
	pending  peer.Descriptor
	answered bool
	misses   flat.Table[int]
	tombs    flat.Table[int64]
	ticks    int64

	// appendSampler is the sampler's allocation-free fast path, resolved
	// once at construction (nil when the sampler doesn't offer one).
	appendSampler sampling.AppendSampler

	// released records that the node's arena-backed storage has been
	// returned; it makes Release idempotent.
	released bool
}

// msgScratch holds the candidate, distance and sort-key buffers reused
// across createMessage calls so steady-state message construction
// allocates nothing: the shipped entries live in a pooled message's arena.
// The scratch is pooled process-wide rather than retained per node — each
// node's callbacks run serialised (simnet is single-threaded; livenet
// drives each host from one dispatch loop), so a message construction
// holds an object exclusively for its duration and a handful of objects
// serve any number of nodes.
type msgScratch struct {
	cand    []peer.Descriptor
	dist    []uint64
	keys    []uint64
	expired []id.ID
}

var msgScratchPool = sync.Pool{New: func() any { return new(msgScratch) }}

// tombstoneTTL is how many ticks an evicted peer stays blacklisted. A
// falsely evicted live peer (consecutive message losses) is relearned
// through gossip once its tombstone expires.
const tombstoneTTL = 20

// sweepEvery makes every sweepEvery-th request (in expectation) probe a
// uniformly random known entry instead of a close ring neighbour, so dead
// entries outside the gossip working set are eventually detected.
const sweepEvery = 4

// appendCertificates appends the unexpired tombstoned IDs to dst, capped
// for transport, in the tomb table's (deterministic) iteration order.
// Expired tombstones found on the way are collected into scratch and
// deleted after the scan: deletion backshifts table entries, so deleting
// mid-iteration would derail the cursor.
func (n *Node) appendCertificates(dst []id.ID, sc *msgScratch) []id.ID {
	if n.tombs.Len() == 0 {
		return dst
	}
	added := 0
	sc.expired = sc.expired[:0]
	n.tombs.Iter(func(dead id.ID, expiry int64) bool {
		if n.ticks >= expiry {
			sc.expired = append(sc.expired, dead)
			return true
		}
		dst = append(dst, dead)
		added++
		return added < maxCertificates
	})
	for _, dead := range sc.expired {
		n.tombs.Delete(dead)
	}
	return dst
}

// adoptCertificates merges a peer's death certificates: each new one
// tombstones and removes the named entry locally.
func (n *Node) adoptCertificates(sender peer.Descriptor, dead []id.ID) {
	for _, d := range dead {
		if d == n.self.ID || d == sender.ID {
			continue
		}
		if n.tombs.Contains(d) {
			continue
		}
		n.tombs.Put(d, n.ticks+tombstoneTTL)
		n.leaf.Remove(d)
		n.table.Remove(d)
	}
}

var _ proto.Protocol = (*Node)(nil)

// NewNode returns a bootstrap node with empty structures. The sampler is
// the co-located peer sampling service (oracle or NEWSCAST instance).
func NewNode(self peer.Descriptor, cfg Config, sampler sampling.Service) (*Node, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("new node %s: %w", self.ID, err)
	}
	if sampler == nil {
		return nil, fmt.Errorf("new node %s: nil sampler", self.ID)
	}
	n := &Node{
		cfg:     cfg,
		self:    self,
		sampler: sampler,
		leaf:    NewLeafSetIn(cfg.Arena, self.ID, cfg.C),
		table:   NewPrefixTableIn(cfg.Arena, self.ID, cfg.B, cfg.K),
		pending: peer.None,
	}
	n.appendSampler, _ = sampler.(sampling.AppendSampler)
	return n, nil
}

// Release returns the node's arena-backed storage (leaf set block, prefix
// table slots) to the network's arena. The engine or harness calls it when
// the node is permanently retired — simnet churn replaces nodes, so the
// victim releases; livenet kill/respawn revives the same node with its
// state intact, so it must NOT release. Idempotent; the node must not be
// driven again afterwards.
func (n *Node) Release() {
	if n.released {
		return
	}
	n.released = true
	n.leaf.Release()
	n.table.Release()
}

// Init implements the paper's start procedure: the leaf set is initialised
// with random nodes from the sampling service and the prefix table is
// cleared (it is born empty here).
func (n *Node) Init(ctx proto.Context) {
	n.leaf.Update(n.sampler.Sample(n.cfg.C))
}

// Tick is one iteration of the active thread: select a peer from the closer
// half of the leaf set, send it an optimised message, and (on arrival of
// the answer, via Handle) update the leaf set and prefix table.
func (n *Node) Tick(ctx proto.Context) {
	n.ticks++
	n.noteMissedAnswer()
	q := peer.None
	if n.cfg.EvictAfterMisses > 0 && ctx.Rand().Intn(sweepEvery) == 0 {
		q = n.sweepTarget(ctx.Rand())
	}
	if q.Nil() {
		q = n.selectPeer(ctx.Rand())
	}
	if q.Nil() {
		return
	}
	if n.cfg.EvictAfterMisses > 0 {
		n.pending, n.answered = q, false
	}
	ctx.Send(q.Addr, n.createMessage(q, true))
}

// sweepTarget picks a uniformly random entry from the node's structures —
// the probe that lets the failure detector reach entries the ring gossip
// never contacts (far leaf entries and prefix-table slots).
func (n *Node) sweepTarget(rng *rand.Rand) peer.Descriptor {
	all := n.leaf.Slice()
	all = append(all, n.table.Entries()...)
	if len(all) == 0 {
		return peer.None
	}
	return all[rng.Intn(len(all))]
}

// noteMissedAnswer charges the previously contacted peer when its answer
// never arrived, evicting it after EvictAfterMisses consecutive misses.
func (n *Node) noteMissedAnswer() {
	if n.cfg.EvictAfterMisses == 0 || n.pending.Nil() || n.answered {
		return
	}
	m, _ := n.misses.Get(n.pending.ID)
	m++
	if m >= n.cfg.EvictAfterMisses {
		n.leaf.Remove(n.pending.ID)
		n.table.Remove(n.pending.ID)
		n.misses.Delete(n.pending.ID)
		// Blacklist so gossip cannot immediately reintroduce the
		// entry; the tombstone expires in case this was a false
		// positive caused by message loss.
		n.tombs.Put(n.pending.ID, n.ticks+tombstoneTTL)
	} else {
		n.misses.Put(n.pending.ID, m)
	}
	n.pending = peer.None
}

// filterTombstoned drops descriptors currently blacklisted, expiring
// tombstones lazily. It copies on first removal rather than compacting the
// incoming slice in place: even though receivers own their messages (see
// Message), an engine that broadcasts one message value to several
// receivers shares the Entries backing array between them, and an in-place
// rewrite here would corrupt the siblings' view mid-filter.
func (n *Node) filterTombstoned(ds []peer.Descriptor) []peer.Descriptor {
	if n.tombs.Len() == 0 {
		return ds
	}
	out, forked := ds, false
	for i, d := range ds {
		expiry, dead := n.tombs.Get(d.ID)
		if dead && n.ticks >= expiry {
			n.tombs.Delete(d.ID)
			dead = false
		}
		switch {
		case dead && !forked: // first removal: fork, keep the prefix
			out = make([]peer.Descriptor, i, len(ds)-1)
			copy(out, ds[:i])
			forked = true
		case !dead && forked:
			out = append(out, d)
		}
	}
	return out
}

// Handle implements both the passive thread (answer requests with an
// equally optimised message) and the tail of the active thread (merge the
// answer).
func (n *Node) Handle(ctx proto.Context, from peer.Addr, msg proto.Message) {
	m, ok := msg.(*Message)
	if !ok {
		return
	}
	if m.Request {
		ctx.Send(from, n.createMessage(m.Sender, false))
	}
	entries := m.Entries
	if n.cfg.EvictAfterMisses > 0 {
		// Any message from a peer proves it alive.
		n.misses.Delete(m.Sender.ID)
		n.tombs.Delete(m.Sender.ID)
		if m.Sender.ID == n.pending.ID {
			n.answered = true
		}
		n.adoptCertificates(m.Sender, m.Dead)
		entries = n.filterTombstoned(entries)
	}
	n.updateLeafSet(entries)
	n.updatePrefixTable(entries)
	n.exchanges++
}

// updateLeafSet is the paper's UpdateLeafSet: merge and keep the c/2
// closest successors and predecessors.
func (n *Node) updateLeafSet(ds []peer.Descriptor) {
	n.leaf.Update(ds)
}

// updatePrefixTable is the paper's UpdatePrefixTable: fill any missing
// table entries from the received set.
func (n *Node) updatePrefixTable(ds []peer.Descriptor) {
	n.table.AddAll(ds)
}

// selectPeer picks a random peer from the closer half of the leaf set.
//
// The paper sorts the whole leaf set by ring distance and samples the
// first half. When one ring direction is locally much denser than the
// other, that half can consist entirely of one direction, so the node
// never gossips toward its sparse side; the node then cannot learn its
// farthest neighbour there except through the random-sample lottery, which
// stalls full convergence for tens of cycles (incompatible with the clean
// convergence the paper reports). We therefore take the closer half of
// each direction — in the typical balanced case the same set of peers —
// which restores symmetric information flow. Before the leaf set has any
// entries the node falls back to a random sample, which also re-bootstraps
// a node that lost all neighbours.
func (n *Node) selectPeer(rng *rand.Rand) peer.Descriptor {
	succ, pred := n.leaf.Successors(), n.leaf.Predecessors()
	if len(succ) == 0 && len(pred) == 0 {
		s := n.sampler.Sample(1)
		if len(s) == 0 {
			return peer.None
		}
		return s[0]
	}
	nSucc := (len(succ) + 1) / 2
	nPred := (len(pred) + 1) / 2
	i := rng.Intn(nSucc + nPred)
	if i < nSucc {
		return succ[i]
	}
	return pred[i-nSucc]
}

// createMessage is the paper's CreateMessage: from everything locally known
// — leaf set, cr fresh random samples, the prefix table, and the node's own
// descriptor — keep the c entries closest to the destination q, then append
// the remaining descriptors as the prefix part, bounded by the size of a
// full prefix table.
//
// Interpretation note: the paper describes the prefix part as "all node
// descriptors that are potentially useful for the peer for its prefix
// table (i.e., have a common prefix with the peer ID)". Row 0 of a prefix
// table is populated by IDs whose common prefix with the owner is *empty*,
// so every descriptor is potentially useful; filtering for a non-empty
// common prefix would permanently starve row 0 once the ring converges and
// messages carry only ring-near entries, contradicting the paper's perfect
// convergence. We therefore ship all remaining union entries, which also
// matches the paper's stated bound (the size of the full prefix table,
// "usually smaller in practice" — the union is far smaller than 768).
func (n *Node) createMessage(q peer.Descriptor, request bool) *Message {
	sc := msgScratchPool.Get().(*msgScratch)
	// Candidates in union insertion order: a duplicate ID keeps the
	// descriptor inserted first, so the order of these appends matters.
	cand := append(sc.cand[:0], n.self)
	cand = append(cand, n.leaf.Successors()...)
	cand = append(cand, n.leaf.Predecessors()...)
	if n.cfg.CR > 0 {
		if n.appendSampler != nil {
			cand = n.appendSampler.AppendSample(cand, n.cfg.CR)
		} else {
			cand = append(cand, n.sampler.Sample(n.cfg.CR)...)
		}
	}
	limit := n.cfg.C
	if !n.cfg.DisablePrefixFeedback {
		cand = n.table.AppendEntries(cand)
		limit += n.cfg.TableCapacity()
	}
	order := sc.sortByRingDistance(cand, q.ID)

	// The shipped entries are copied out of scratch into a pooled
	// message's arena: messages are owned by their receiver (see Message),
	// so scratch must never escape — and the engine recycles the arena
	// once the receiver is done with it. Equal IDs are adjacent in order,
	// first-inserted first, so dropping every repeat of the previous ID
	// deduplicates exactly as an insertion-ordered set would.
	m := messagePool.Get().(*Message)
	m.Sender = n.self
	m.Request = request
	m.Entries = m.Entries[:0]
	for k, i := range order {
		if len(m.Entries) == limit {
			break
		}
		d := cand[i]
		if d.ID == q.ID || (k > 0 && cand[order[k-1]].ID == d.ID) {
			continue // never ship the destination its own descriptor
		}
		m.Entries = append(m.Entries, d)
	}
	m.Dead = m.Dead[:0]
	if n.cfg.EvictAfterMisses > 0 {
		m.Dead = n.appendCertificates(m.Dead, sc)
	}
	sc.cand = cand
	msgScratchPool.Put(sc)
	return m
}

// sortByRingDistance returns the candidate indices ordered by (ring
// distance from pivot, ID, index) — the ring order the protocol ships in,
// with duplicates adjacent and first-inserted first. The flat keys
// (dist>>s)<<s | index sort with an inlined compare; only candidates
// whose distances agree above the low s bits can be left out of order,
// and one insertion pass on the exact triple fixes those in near-linear
// time. The returned slice is scratch, valid until sc is reused.
func (sc *msgScratch) sortByRingDistance(cand []peer.Descriptor, pivot id.ID) []uint64 {
	s := uint(bits.Len(uint(len(cand))))
	dist, keys := sc.dist[:0], sc.keys[:0]
	for i, d := range cand {
		r := id.RingDistance(pivot, d.ID)
		dist = append(dist, r)
		keys = append(keys, r>>s<<s|uint64(i))
	}
	slices.Sort(keys)
	mask := uint64(1)<<s - 1
	for k := range keys {
		keys[k] &= mask
	}
	less := func(a, b uint64) bool {
		if dist[a] != dist[b] {
			return dist[a] < dist[b]
		}
		if cand[a].ID != cand[b].ID {
			return cand[a].ID < cand[b].ID
		}
		return a < b
	}
	for k := 1; k < len(keys); k++ {
		for j := k; j > 0 && less(keys[j], keys[j-1]); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	sc.dist, sc.keys = dist, keys
	return keys
}

// Self returns the node's own descriptor.
func (n *Node) Self() peer.Descriptor { return n.self }

// Leaf returns the node's leaf set.
func (n *Node) Leaf() *LeafSet { return n.leaf }

// Table returns the node's prefix table.
func (n *Node) Table() *PrefixTable { return n.table }

// Exchanges returns the number of completed update rounds.
func (n *Node) Exchanges() int64 { return n.exchanges }

// Config returns the node's configuration.
func (n *Node) Config() Config { return n.cfg }
