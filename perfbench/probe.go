package main

import (
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/peer"
	"repro/internal/proto"
	"repro/internal/sampling"
)

// appendSampler is what core.NewNode probes its sampler for; the oracle
// and its streams implement it, and so must the probe that wraps them, or
// the node would take the slower Sample path.
type appendSampler interface {
	sampling.Service
	sampling.AppendSampler
}

// samplerProbe times every draw a node makes from its sampling service.
type samplerProbe struct {
	inner appendSampler
	lane  *lane
}

func (s *samplerProbe) Sample(n int) []peer.Descriptor {
	i := s.lane.begin(spSample, -1)
	out := s.inner.Sample(n)
	s.lane.end(i)
	return out
}

func (s *samplerProbe) AppendSample(dst []peer.Descriptor, n int) []peer.Descriptor {
	i := s.lane.begin(spSample, -1)
	out := s.inner.AppendSample(dst, n)
	s.lane.end(i)
	return out
}

// nodeProbe is the proto.Protocol a traced run attaches in place of a
// core.Node. It forwards every callback unchanged, so the protocol trace
// is the node's own; untraced runs attach the bare node. It records a span
// per callback and counts the descriptors received and how many of them
// grew the receiver's structures. On the host runtimes it also times each
// exchange's round trip (Tick's send to the reply's Handle) and each
// request's transit (send to the receiver's Handle).
type nodeProbe struct {
	node *core.Node
	self peer.Addr
	lane *lane
	// epoch is the shared clock origin of every probe of a run.
	epoch time.Time
	// cycle points at the simnet loop's current cycle; nil on the
	// host runtimes, where spans link to exchanges instead.
	cycle *int64
	// peers lets a request's receiver find its initiator's probe (host
	// runtimes only).
	peers []*nodeProbe

	cx    probeCtx
	ticks int64

	// Round-trip state, owned by the node's goroutine.
	pendingTo peer.Addr
	sentAt    int64
	rtts      []int64

	// Published for the receiver of this node's request: which exchange
	// is open, to whom the request went, and when.
	exch      atomic.Int64
	reqTo     atomic.Int32
	reqSentAt atomic.Int64
	transits  []int64

	received, useful int64
	leafBefore       []id.ID
}

// probeCtx intercepts the node's sends to time the exchange it starts.
// It lives inside the probe, so passing &p.cx allocates nothing.
type probeCtx struct {
	proto.Context
	p *nodeProbe
}

func (c *probeCtx) Send(to peer.Addr, msg proto.Message) {
	p := c.p
	if m, ok := msg.(*core.Message); ok && m.Request {
		p.pendingTo = to
		p.sentAt = p.now()
		p.reqTo.Store(int32(to))
		p.reqSentAt.Store(p.sentAt)
	}
	c.Context.Send(to, msg)
}

func newNodeProbe(node *core.Node, l *lane, epoch time.Time) *nodeProbe {
	p := &nodeProbe{node: node, self: node.Self().Addr, lane: l, epoch: epoch, pendingTo: peer.NoAddr}
	p.cx.p = p
	p.reqTo.Store(-1)
	return p
}

func (p *nodeProbe) now() int64 { return int64(time.Since(p.epoch)) }

// link is the span link of a callback the node itself starts.
func (p *nodeProbe) link() int64 {
	if p.cycle != nil {
		return *p.cycle
	}
	return int64(p.self)<<32 | p.ticks
}

func (p *nodeProbe) Init(ctx proto.Context) {
	i := p.lane.begin(spInit, p.link())
	p.node.Init(ctx)
	p.lane.end(i)
}

func (p *nodeProbe) Tick(ctx proto.Context) {
	p.ticks++
	i := p.lane.begin(spTick, p.link())
	if p.cycle != nil {
		p.node.Tick(ctx)
	} else {
		p.exch.Store(p.link())
		p.cx.Context = ctx
		p.node.Tick(&p.cx)
		p.cx.Context = nil
	}
	p.lane.end(i)
}

func (p *nodeProbe) Handle(ctx proto.Context, from peer.Addr, msg proto.Message) {
	m, ok := msg.(*core.Message)
	if !ok {
		p.node.Handle(ctx, from, msg)
		return
	}
	name, link := spHandleReply, p.link()
	switch {
	case m.Request && p.cycle == nil:
		name, link = spHandleReq, -1
		if int(from) < len(p.peers) {
			q := p.peers[from]
			link = q.exch.Load()
			if q.reqTo.Load() == int32(p.self) {
				// The two loads can straddle the initiator's next send;
				// a negative reading is that race, not a transit.
				if d := p.now() - q.reqSentAt.Load(); d >= 0 {
					p.transits = append(p.transits, d)
				}
			}
		}
	case m.Request:
		name = spHandleReq
	case p.cycle == nil && from == p.pendingTo:
		p.rtts = append(p.rtts, p.now()-p.sentAt)
		p.pendingTo = peer.NoAddr
	}
	tableBefore := p.node.Table().Len()
	p.leafBefore = appendLeafIDs(p.leafBefore[:0], p.node.Leaf())
	p.received += int64(len(m.Entries))

	i := p.lane.begin(name, link)
	p.node.Handle(ctx, from, msg)
	p.lane.end(i)

	grown := int64(p.node.Table().Len() - tableBefore)
	for _, d := range p.node.Leaf().Successors() {
		grown += newcomer(p.leafBefore, d.ID)
	}
	for _, d := range p.node.Leaf().Predecessors() {
		grown += newcomer(p.leafBefore, d.ID)
	}
	p.useful += grown
}

func appendLeafIDs(dst []id.ID, ls *core.LeafSet) []id.ID {
	for _, d := range ls.Successors() {
		dst = append(dst, d.ID)
	}
	for _, d := range ls.Predecessors() {
		dst = append(dst, d.ID)
	}
	return dst
}

func newcomer(before []id.ID, v id.ID) int64 {
	for _, b := range before {
		if b == v {
			return 0
		}
	}
	return 1
}
