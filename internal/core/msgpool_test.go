package core

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/peer"
	"repro/internal/sampling"
)

// msgSnapshot is a deep copy of a message's logical content, with nil and
// empty slices identified (pooling legitimately turns a nil Dead into an
// empty one).
type msgSnapshot struct {
	sender  peer.Descriptor
	request bool
	entries []peer.Descriptor
	dead    int
}

func snapshot(m *Message) msgSnapshot {
	return msgSnapshot{
		sender:  m.Sender,
		request: m.Request,
		entries: append([]peer.Descriptor{}, m.Entries...),
		dead:    len(m.Dead),
	}
}

// TestMessagePoolEquivalence drives two identically seeded nodes through
// the same exchange sequence; one node's outgoing messages are recycled
// back into the pool immediately (the engine's steady state), the other's
// never are. Every message pair must be content-identical: pooling is a
// storage optimisation and may not leak a previous message's bytes into
// the next, nor let scratch state alias a recycled arena.
func TestMessagePoolEquivalence(t *testing.T) {
	world := make([]peer.Descriptor, 96)
	for i := range world {
		world[i] = peer.Descriptor{ID: testID(i), Addr: peer.Addr(int32(i))}
	}
	build := func() *Node {
		cfg := testConfig()
		cfg.EvictAfterMisses = 2 // exercise the Dead arena too
		n, err := NewNode(world[0], cfg, sampling.Fixed(world[2:12]))
		if err != nil {
			t.Fatal(err)
		}
		n.Leaf().Update(world[12:40])
		n.Table().AddAll(world[40:])
		return n
	}
	recycled, pristine := build(), build()

	feed := func(n *Node, from peer.Descriptor, entries []peer.Descriptor) {
		m := &Message{Sender: from, Entries: append([]peer.Descriptor{}, entries...)}
		n.Handle(nil, from.Addr, m) // Request is false: no reply, ctx unused
	}
	for i := 0; i < 64; i++ {
		dest := world[1+(i%40)]
		// Interleave inbound gossip so the nodes' structures keep
		// changing between constructions.
		feed(recycled, world[50+(i%30)], world[i%64:i%64+8])
		feed(pristine, world[50+(i%30)], world[i%64:i%64+8])

		mr := recycled.createMessage(dest, i%2 == 0)
		mp := pristine.createMessage(dest, i%2 == 0)
		sr, sp := snapshot(mr), snapshot(mp)
		if !reflect.DeepEqual(sr, sp) {
			t.Fatalf("round %d: recycling changed message content:\n got %+v\nwant %+v", i, sr, sp)
		}
		mr.Recycle() // back to the pool; the next round reuses the arena
	}
}

// TestScratchPoolsConcurrent runs independent nodes on separate goroutines
// — as sharded simnet and concurrent hosts do — so that they share the
// process-wide message and leaf-set scratch pools. Each goroutine's
// messages must equal a sequential run of the same node; under -race, any
// scratch retained across calls shows up as a data race.
func TestScratchPoolsConcurrent(t *testing.T) {
	world := make([]peer.Descriptor, 160)
	for i := range world {
		world[i] = peer.Descriptor{ID: testID(i), Addr: peer.Addr(int32(i))}
	}
	run := func(g int) []msgSnapshot {
		n, err := NewNode(world[g], testConfig(), sampling.Fixed(world[100:110]))
		if err != nil {
			t.Error(err)
			return nil
		}
		n.Table().AddAll(world[110:])
		var out []msgSnapshot
		for i := 0; i < 200; i++ {
			n.Leaf().Update(world[(g+i)%90 : (g+i)%90+10])
			m := n.createMessage(world[(g*7+i)%100], true)
			out = append(out, snapshot(m))
			m.Recycle()
		}
		return out
	}
	const workers = 4
	want := make([][]msgSnapshot, workers)
	for g := range want {
		want[g] = run(g)
	}
	got := make([][]msgSnapshot, workers)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = run(g)
		}()
	}
	wg.Wait()
	for g := range got {
		if !reflect.DeepEqual(got[g], want[g]) {
			t.Fatalf("worker %d: concurrent messages differ from the sequential run", g)
		}
	}
}
