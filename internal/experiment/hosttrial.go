package experiment

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/hostrt"
	"repro/internal/id"
	"repro/internal/livenet"
	"repro/internal/newscast"
	"repro/internal/peer"
	"repro/internal/sampling"
	"repro/internal/truth"
)

// cyclePlan is the fully resolved fault actions of one cycle, in schedule
// order: explicit global address lists instead of fractions, so every
// process of a campaign — expanding the schedule independently from the
// same seed — executes the identical plan without coordination.
type cyclePlan struct {
	actions []action
	// kills and respawns list every address the cycle crashes and
	// revives, in action order; each OpKill or OpRespawn action takes the
	// next n of its list.
	kills, respawns []int
}

// action is one resolved scenario event.
type action struct {
	livenet.Event
	n int // OpKill/OpRespawn: addresses taken from the plan's list
}

// expandSchedule resolves a scenario schedule into per-cycle plans. Kill
// victims are drawn from a dedicated deterministic RNG over the simulated
// alive set in ascending address order, and events apply in schedule
// order, so the same (seed, schedule) yields the same plan on every
// engine and every process.
func expandSchedule(schedule []livenet.Event, seed int64, n int) (map[int]*cyclePlan, error) {
	plans := make(map[int]*cyclePlan)
	rng := rand.New(rand.NewSource(seed + 0x50c3e7))
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	for _, e := range schedule {
		p := plans[e.Cycle]
		if p == nil {
			p = &cyclePlan{}
			plans[e.Cycle] = p
		}
		a := action{Event: e}
		switch e.Op {
		case livenet.OpKill:
			var up []int
			for addr, ok := range alive {
				if ok {
					up = append(up, addr)
				}
			}
			a.n = e.KillCount(len(up))
			if a.n <= 0 {
				continue
			}
			for _, i := range rng.Perm(len(up))[:a.n] {
				alive[up[i]] = false
				p.kills = append(p.kills, up[i])
			}
		case livenet.OpRespawn:
			for addr, ok := range alive {
				if !ok {
					alive[addr] = true
					p.respawns = append(p.respawns, addr)
					a.n++
				}
			}
		case livenet.OpSetDrop, livenet.OpPartition, livenet.OpHeal, livenet.OpSetLatency:
		default:
			return nil, fmt.Errorf("experiment: unknown scenario op %v", e.Op)
		}
		p.actions = append(p.actions, a)
	}
	return plans, nil
}

// hostMember is one node of a host-engine trial. Every process tracks
// every node's descriptor and alive bit (global knowledge derived from the
// shared plan); only the nodes it runs carry a host and protocol state.
type hostMember struct {
	desc  peer.Descriptor
	host  *hostrt.Host // nil for nodes another process runs
	node  *core.Node   // nil for nodes another process runs
	alive bool
}

// hostTrial is one process's share of a trial on a host engine (livenet
// or sockets): the members, the membership oracle and ground truth, the
// resolved fault plan, and the pause-the-world collect step. The engines
// differ only in how they build the network.
type hostTrial struct {
	measurement
	p        LiveParams
	rt       *hostrt.Runtime
	members  []hostMember
	oracle   *sampling.Oracle
	plans    map[int]*cyclePlan
	schedule []livenet.Event
	measBuf  []truth.Member
	// setLatency is the engine's latency injector; nil when the engine
	// has none (sockets), which then rejects latency schedules up front.
	setLatency func(min, max time.Duration)

	// LastEventCycle is the latest cycle with a scheduled event;
	// convergence may only be declared at or after it.
	LastEventCycle int
	// Killed and Respawned count lifecycle events applied to this
	// process's hosts.
	Killed, Respawned int
}

// warmup is how long a NEWSCAST layer gossips alone before the bootstrap
// layer's first tick; zero under the oracle sampler.
func (p LiveParams) warmup() time.Duration {
	if p.Sampler != SamplerNewscast {
		return 0
	}
	return time.Duration(p.WarmupCycles) * p.Period
}

// newHostTrial builds the engine-independent part of a host trial over the
// N-host network rt, of which hosts (in ascending address order) run in
// this process: node ids[i] lives at address i on every engine, so the
// cross-engine comparisons run the same ring. Each local host gets its
// bootstrap node (and, under SamplerNewscast, a NEWSCAST instance)
// attached; the caller starts the network. The socket engine fills only
// the LiveParams fields it supports.
func newHostTrial(p LiveParams, seed int64, schedule []livenet.Event, rt *hostrt.Runtime, hosts []*hostrt.Host, setLatency func(min, max time.Duration)) (*hostTrial, error) {
	plans, err := expandSchedule(schedule, seed, p.N)
	if err != nil {
		return nil, err
	}
	ids := id.Unique(p.N, seed+0x11)
	descs := make([]peer.Descriptor, p.N)
	members := make([]hostMember, p.N)
	for i, nodeID := range ids {
		descs[i] = peer.Descriptor{ID: nodeID, Addr: peer.Addr(i)}
		members[i] = hostMember{desc: descs[i], alive: true}
	}
	oracle := sampling.NewOracle(descs, seed+0x1234)
	// One arena per trial, shared by every host's node. Blocks are never
	// released during the run: a killed host keeps its protocol state for
	// Respawn (the crash-recovery model), so its blocks stay owned by the
	// node for the whole trial. The arena's win here is batching: ~3 block
	// allocations per node become one chunk allocation per 256 blocks.
	cfg := p.Config
	cfg.Arena = peer.NewDescriptorArena()
	ncRNG := rand.New(rand.NewSource(seed + 0x9e3779b9))
	for _, h := range hosts {
		addr := int(h.Addr())
		m := &members[addr]
		m.host = h
		// Each node samples through its own handle — an oracle Stream
		// or a newscast Sampler — so the per-tick sample path never
		// takes a shared lock: concurrent hosts do not contend.
		var svc sampling.Service = oracle.Stream(int64(addr))
		if p.Sampler == SamplerNewscast {
			nc := newscast.New(m.desc, oracle.Sample(5), newscast.DefaultViewSize)
			if err := h.Attach(newscast.ProtoID, nc, p.Period, time.Duration(ncRNG.Int63n(int64(p.Period)))); err != nil {
				return nil, fmt.Errorf("attach newscast: %w", err)
			}
			svc = newscast.NewSampler(nc, seed+0x51*int64(addr+1))
		}
		node, err := core.NewNode(m.desc, cfg, svc)
		if err != nil {
			return nil, err
		}
		m.node = node
		// Offsets are a pure function of (seed, addr) — not an RNG
		// stream — so they are identical however the campaign is
		// sharded.
		off := time.Duration((uint64(seed)*0x9e3779b97f4a7c15 + uint64(addr)*0xbf58476d1ce4e5b9) % uint64(p.Period))
		if err := h.Attach(core.ProtoID, node, p.Period, p.warmup()+off); err != nil {
			return nil, fmt.Errorf("attach bootstrap: %w", err)
		}
	}
	tr, err := truth.New(ids, p.Config.B, p.Config.K, p.Config.C)
	if err != nil {
		return nil, err
	}
	lastEvent := -1
	if len(schedule) > 0 {
		lastEvent = schedule[len(schedule)-1].Cycle // Events sorts by cycle
	}
	return &hostTrial{
		measurement: measurement{
			tr:         tr,
			sample:     p.MeasureSample,
			confidence: p.MeasureConfidence,
			workers:    p.MeasureWorkers,
			rng:        rand.New(rand.NewSource(seed + 0x5ca1ab1e)),
		},
		p: p, rt: rt, members: members, oracle: oracle,
		plans: plans, schedule: schedule, setLatency: setLatency,
		LastEventCycle: lastEvent,
	}, nil
}

// applyPlan executes one cycle's fault actions in order. Membership
// bookkeeping (oracle, truth) is global — every process tracks all N
// nodes — while Kill/Respawn touch only local hosts. Negative set-drop and
// set-latency values restore the trial's configured baseline.
func (t *hostTrial) applyPlan(plan *cyclePlan) error {
	if plan == nil {
		return nil
	}
	kills, respawns := plan.kills, plan.respawns
	for _, a := range plan.actions {
		switch a.Op {
		case livenet.OpKill:
			if err := t.kill(kills[:a.n]); err != nil {
				return err
			}
			kills = kills[a.n:]
		case livenet.OpRespawn:
			if err := t.respawn(respawns[:a.n]); err != nil {
				return err
			}
			respawns = respawns[a.n:]
		case livenet.OpSetDrop:
			v := a.Value
			if v < 0 {
				v = t.p.Drop
			}
			t.rt.SetDrop(v)
		case livenet.OpPartition:
			t.rt.SetPartition(livenet.Cut(a.Split))
		case livenet.OpHeal:
			t.rt.SetPartition(nil)
		case livenet.OpSetLatency:
			min, max := a.Min, a.Max
			if min < 0 || max < 0 {
				min, max = t.p.MinLatency, t.p.MaxLatency
			}
			t.setLatency(min, max)
		}
	}
	return nil
}

// kill crashes the nodes at addrs.
func (t *hostTrial) kill(addrs []int) error {
	removed := make([]id.ID, len(addrs))
	var victims []*hostrt.Host
	for i, addr := range addrs {
		m := &t.members[addr]
		m.alive = false
		t.oracle.Remove(m.desc.ID)
		removed[i] = m.desc.ID
		if m.host != nil {
			victims = append(victims, m.host)
		}
	}
	hostrt.KillAll(victims)
	t.Killed += len(victims)
	return t.tr.Update(nil, removed)
}

// respawn revives the nodes at addrs with the protocol state they crashed
// with.
func (t *hostTrial) respawn(addrs []int) error {
	added := make([]id.ID, len(addrs))
	for i, addr := range addrs {
		m := &t.members[addr]
		if m.host != nil {
			if err := m.host.Respawn(); err != nil {
				return err
			}
			t.Respawned++
		}
		m.alive = true
		t.oracle.Add(m.desc)
		added[i] = m.desc.ID
	}
	return t.tr.Update(added, nil)
}

// runCycle runs one cycle up to its measurement: apply the cycle's fault
// plan, let the network gossip for one period, then pause every local host
// and hand measure the live local members and the network-wide alive
// count. The hosts resume when measure returns.
func (t *hostTrial) runCycle(cycle int, measure func(ms []truth.Member, alive int)) error {
	if err := t.applyPlan(t.plans[cycle]); err != nil {
		return err
	}
	time.Sleep(t.p.Period)

	t.rt.PauseAll()
	defer t.rt.ResumeAll()
	ms := t.measBuf[:0]
	alive := 0
	for i := range t.members {
		m := &t.members[i]
		if !m.alive {
			continue
		}
		alive++
		if m.node != nil {
			ms = append(ms, truth.Member{Self: m.desc.ID, Leaf: m.node.Leaf(), Table: m.node.Table()})
		}
	}
	t.measBuf = ms
	measure(ms, alive)
	return nil
}

// drive runs a single-process trial (RunLive, RunSocket) to completion
// under Drive, each cycle measured network-wide by measurePoint while the
// world is paused.
func (t *hostTrial) drive() ([]Point, int, error) {
	return Drive(t.p.Cycles, t.LastEventCycle, t.p.KeepRunningAfterPerfect, func(cycle int) (pt Point, perfect bool, err error) {
		err = t.runCycle(cycle, func(ms []truth.Member, alive int) {
			st := t.rt.Snapshot()
			pt, perfect = t.measurePoint(ms, cycle, cycle >= t.LastEventCycle, alive, st.Sent, st.Dropped, 0)
		})
		return pt, perfect, err
	})
}
