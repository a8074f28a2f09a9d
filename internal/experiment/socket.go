package experiment

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/hostrt"
	"repro/internal/id"
	"repro/internal/livenet"
	"repro/internal/peer"
	"repro/internal/sampling"
	"repro/internal/transport"
	"repro/internal/truth"
)

// SocketParams configures one socket-engine campaign trial: the bootstrap
// protocol over real loopback sockets (package transport), optionally
// sharded across OS processes. The scenario vocabulary is shared with
// livenet, except latency events: the socket engine measures the kernel's
// real delivery latency instead of injecting one, so OpSetLatency is a
// configuration error here.
type SocketParams struct {
	// N is the total host count across all processes.
	N int
	// Config holds the bootstrap protocol parameters (Delta ignored).
	Config core.Config
	// Period is the wall-clock gossip period Δ. Zero selects the livenet
	// default for this N.
	Period time.Duration
	// Cycles is the campaign length in periods.
	Cycles int
	// Drop is the initial sender-side loss probability.
	Drop float64
	// InboxSize / QueueSize bound the per-host inbox and per-peer send
	// queue (zero selects the transport defaults).
	InboxSize, QueueSize int
	// Procs shards the campaign over OS processes; Proc is this
	// process's shard. Zero Procs selects 1.
	Procs, Proc int
	// BasePort indexes the localhost topology (process p listens on
	// BasePort+p).
	BasePort int
	// UDP selects datagram sockets (see transport.Config.UDP).
	UDP bool
	// Scenario is the churn/failure schedule; zero value is failure-free.
	Scenario livenet.Scenario
	// MeasureWorkers shards the per-cycle measurement (0 = GOMAXPROCS).
	MeasureWorkers int
	// KeepRunningAfterPerfect continues to Cycles even after perfection.
	KeepRunningAfterPerfect bool
}

func (p SocketParams) withDefaults() SocketParams {
	if p.Procs <= 0 {
		p.Procs = 1
	}
	if p.Period == 0 {
		p.Period = DefaultLivePeriod(p.N, 1)
	}
	return p
}

// Validate checks the parameters.
func (p SocketParams) Validate() error {
	p = p.withDefaults()
	if p.N < 2 {
		return errors.New("experiment: socket N must be at least 2")
	}
	if p.Cycles < 1 {
		return errors.New("experiment: socket Cycles must be positive")
	}
	if p.Drop < 0 || p.Drop >= 1 {
		return fmt.Errorf("experiment: socket Drop = %v out of [0, 1)", p.Drop)
	}
	if p.Period < 0 {
		return errors.New("experiment: socket Period must not be negative")
	}
	return p.Config.Validate()
}

// SocketResult is the outcome of one single-process socket trial.
type SocketResult struct {
	Params SocketParams
	Seed   int64
	// Schedule is the scenario's deterministic event plan for this seed.
	Schedule []livenet.Event
	// Points holds one entry per completed cycle.
	Points []Point
	// ConvergedAt is the first cycle at which both structures were
	// perfect at every live node, or -1.
	ConvergedAt int
	// Stats is the final traffic snapshot, taken at quiescence (conserved
	// when every frame drained cleanly; see the transport package).
	Stats transport.Stats
	// Killed and Respawned count lifecycle events applied.
	Killed, Respawned int
}

// Final returns the last measured point.
func (res *SocketResult) Final() Point {
	if len(res.Points) == 0 {
		return Point{}
	}
	return res.Points[len(res.Points)-1]
}

// cyclePlan is the fully resolved fault actions of one cycle: explicit
// global address lists instead of fractions, so every process of a
// campaign — expanding the schedule independently from the same seed —
// executes the identical plan without coordination.
type cyclePlan struct {
	kills    []int // global addrs to crash, ascending
	respawns []int // global addrs to revive, ascending
	setDrop  *float64
	split    *int // partition boundary; negative heals
}

// expandSocketSchedule resolves a livenet schedule into per-cycle address
// plans. Kill victims are drawn from a dedicated deterministic RNG over
// the simulated alive set in ascending address order — the same inputs on
// every process yield the same victims. Latency events are rejected: the
// socket engine has no latency injector.
func expandSocketSchedule(schedule []livenet.Event, seed int64, n int) (map[int]*cyclePlan, error) {
	plans := make(map[int]*cyclePlan)
	at := func(c int) *cyclePlan {
		if plans[c] == nil {
			plans[c] = &cyclePlan{}
		}
		return plans[c]
	}
	rng := rand.New(rand.NewSource(seed + 0x50c3e7))
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	for _, e := range schedule {
		switch e.Op {
		case livenet.OpKill:
			var up []int
			for addr, a := range alive {
				if a {
					up = append(up, addr)
				}
			}
			k := e.KillCount(len(up))
			if k <= 0 {
				continue
			}
			perm := rng.Perm(len(up))
			p := at(e.Cycle)
			for i := 0; i < k; i++ {
				victim := up[perm[i]]
				alive[victim] = false
				p.kills = append(p.kills, victim)
			}
		case livenet.OpRespawn:
			p := at(e.Cycle)
			for addr, a := range alive {
				if !a {
					alive[addr] = true
					p.respawns = append(p.respawns, addr)
				}
			}
		case livenet.OpSetDrop:
			v := e.Value
			at(e.Cycle).setDrop = &v
		case livenet.OpPartition:
			s := e.Split
			at(e.Cycle).split = &s
		case livenet.OpHeal:
			s := -1
			at(e.Cycle).split = &s
		case livenet.OpSetLatency:
			return nil, errors.New("experiment: socket engine does not support latency events (the kernel provides the latency)")
		default:
			return nil, fmt.Errorf("experiment: unknown scenario op %v", e.Op)
		}
	}
	return plans, nil
}

// socketMember is one node of the campaign as seen from this process:
// every node has a descriptor and an alive bit (global knowledge derived
// from the shared plan); only local nodes carry a host and protocol state.
type socketMember struct {
	desc  peer.Descriptor
	host  *transport.Host // nil for nodes owned by other processes
	node  *core.Node      // nil for remote nodes
	alive bool
}

// SocketTrial is one process's share of a socket campaign, stepped one
// cycle at a time so a multi-process driver (cmd/netsim) can interleave
// its own barriers between cycles. Single-process callers use RunSocket.
type SocketTrial struct {
	p        SocketParams
	seed     int64
	net      *transport.Network
	members  []*socketMember
	oracle   *sampling.Oracle
	tr       *truth.Truth
	plans    map[int]*cyclePlan
	schedule []livenet.Event
	// LastEventCycle is the latest cycle with a scheduled event;
	// convergence may only be declared at or after it.
	LastEventCycle int
	// Killed and Respawned count lifecycle events applied to local hosts.
	Killed, Respawned int
	measBuf           []truth.Member
}

// NewSocketTrial builds this process's shard: the transport network, the
// local hosts with their bootstrap nodes, the global membership oracle,
// and the resolved fault plan. Call Start, then StepCycle per cycle.
func NewSocketTrial(p SocketParams, seed int64) (*SocketTrial, error) {
	p = p.withDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	net, err := transport.New(transport.Config{
		Seed:      seed,
		N:         p.N,
		Procs:     p.Procs,
		Proc:      p.Proc,
		BasePort:  p.BasePort,
		InboxSize: p.InboxSize,
		QueueSize: p.QueueSize,
		Drop:      p.Drop,
		UDP:       p.UDP,
	})
	if err != nil {
		return nil, err
	}

	// Identity derivation matches RunLive exactly (ids[i] ↔ addr i), so
	// the cross-engine comparison runs the same ring on both engines.
	ids := id.Unique(p.N, seed+0x11)
	descs := make([]peer.Descriptor, p.N)
	members := make([]*socketMember, p.N)
	for i := 0; i < p.N; i++ {
		descs[i] = peer.Descriptor{ID: ids[i], Addr: peer.Addr(i)}
		members[i] = &socketMember{desc: descs[i], alive: true}
	}
	oracle := sampling.NewOracle(descs, seed+0x1234)

	cfg := p.Config
	cfg.Arena = peer.NewDescriptorArena()
	for _, h := range net.LocalHosts() {
		addr := int(h.Addr())
		m := members[addr]
		m.host = h
		node, err := core.NewNode(m.desc, cfg, oracle.Stream(int64(addr)))
		if err != nil {
			net.Close()
			return nil, err
		}
		m.node = node
		// Offsets are a pure function of (seed, addr) — not an RNG
		// stream — so they are identical however the campaign is
		// sharded.
		off := time.Duration((uint64(seed)*0x9e3779b97f4a7c15 + uint64(addr)*0xbf58476d1ce4e5b9) % uint64(p.Period))
		if err := h.Attach(core.ProtoID, node, p.Period, off); err != nil {
			net.Close()
			return nil, fmt.Errorf("attach bootstrap: %w", err)
		}
	}

	schedule := p.Scenario.Events(seed, p.N, p.Cycles)
	plans, err := expandSocketSchedule(schedule, seed, p.N)
	if err != nil {
		net.Close()
		return nil, err
	}
	lastEvent := -1
	for c := range plans {
		if c > lastEvent {
			lastEvent = c
		}
	}

	tr, err := truth.New(ids, p.Config.B, p.Config.K, p.Config.C)
	if err != nil {
		net.Close()
		return nil, err
	}
	return &SocketTrial{
		p: p, seed: seed, net: net, members: members,
		oracle: oracle, tr: tr, plans: plans, schedule: schedule,
		LastEventCycle: lastEvent,
	}, nil
}

// Schedule returns the scenario's event plan.
func (t *SocketTrial) Schedule() []livenet.Event { return t.schedule }

// Net exposes the underlying network (driver teardown, stats).
func (t *SocketTrial) Net() *transport.Network { return t.net }

// Start binds the sockets and launches the hosts.
func (t *SocketTrial) Start() error { return t.net.Start() }

// applyPlan executes one cycle's fault actions. Membership bookkeeping
// (oracle, truth) is global — every process tracks all N nodes — while
// Kill/Respawn touch only local hosts.
func (t *SocketTrial) applyPlan(plan *cyclePlan) error {
	if plan == nil {
		return nil
	}
	var added, removed []id.ID
	var victims []*transport.Host
	for _, addr := range plan.kills {
		m := t.members[addr]
		m.alive = false
		t.oracle.Remove(m.desc.ID)
		removed = append(removed, m.desc.ID)
		if m.host != nil {
			t.Killed++
			victims = append(victims, m.host)
		}
	}
	hostrt.KillAll(victims)
	for _, addr := range plan.respawns {
		m := t.members[addr]
		m.alive = true
		t.oracle.Add(m.desc)
		added = append(added, m.desc.ID)
		if m.host != nil {
			if err := m.host.Respawn(); err != nil {
				return err
			}
			t.Respawned++
		}
	}
	if plan.setDrop != nil {
		v := *plan.setDrop
		if v < 0 {
			v = t.p.Drop
		}
		t.net.SetDrop(v)
	}
	if plan.split != nil {
		if s := *plan.split; s < 0 {
			t.net.SetPartition(nil)
		} else {
			t.net.SetPartition(livenet.Cut(s))
		}
	}
	if len(added) > 0 || len(removed) > 0 {
		return t.tr.Update(added, removed)
	}
	return nil
}

// StepCycle runs one campaign cycle: apply the cycle's fault plan, let
// the network gossip for one period, pause the local hosts, measure the
// local members against the global truth, resume. The returned aggregate
// covers only this process's members — integer sums, so a driver adds the
// per-process partials to recover exactly the whole-network measurement —
// alongside the local and global alive counts.
func (t *SocketTrial) StepCycle(cycle int) (agg truth.Aggregate, localAlive, globalAlive int, err error) {
	if err := t.applyPlan(t.plans[cycle]); err != nil {
		return truth.Aggregate{}, 0, 0, err
	}
	time.Sleep(t.p.Period)

	t.net.PauseAll()
	ms := t.measBuf[:0]
	for _, m := range t.members {
		if !m.alive {
			continue
		}
		globalAlive++
		if m.node == nil {
			continue
		}
		localAlive++
		ms = append(ms, truth.Member{Self: m.desc.ID, Leaf: m.node.Leaf(), Table: m.node.Table()})
	}
	t.measBuf = ms
	agg = t.tr.MeasureAll(ms, t.p.MeasureWorkers)
	t.net.ResumeAll()
	return agg, localAlive, globalAlive, nil
}

// Drain quiesces this process's share of the traffic: tick sources off,
// then wait for the counters to settle. Campaign drivers call it on every
// process before summing final stats.
func (t *SocketTrial) Drain(timeout time.Duration) bool {
	t.net.StopTicks()
	return t.net.Quiesce(timeout)
}

// Stats returns the process-local traffic counters.
func (t *SocketTrial) Stats() transport.Stats { return t.net.Stats() }

// Close tears the shard down.
func (t *SocketTrial) Close() { t.net.Close() }

// RunSocket executes one complete single-process socket trial — the
// socket-engine counterpart of RunLive, over real loopback TCP (or UDP).
func RunSocket(p SocketParams, seed int64) (*SocketResult, error) {
	p = p.withDefaults()
	if p.Procs != 1 {
		return nil, errors.New("experiment: RunSocket is single-process; use SocketTrial under cmd/netsim for multi-process campaigns")
	}
	t, err := NewSocketTrial(p, seed)
	if err != nil {
		return nil, err
	}
	defer t.Close()
	if err := t.Start(); err != nil {
		return nil, err
	}
	res := &SocketResult{Params: p, Seed: seed, Schedule: t.Schedule(), ConvergedAt: -1}
	for cycle := 0; cycle < p.Cycles; cycle++ {
		agg, _, alive, err := t.StepCycle(cycle)
		if err != nil {
			return nil, err
		}
		st := t.Stats()
		pt := pointFromAggregate(cycle, agg, alive, st.Sent, st.Dropped, 0)
		res.Points = append(res.Points, pt)
		if pt.LeafMissing == 0 && pt.PrefixMissing == 0 && cycle >= t.LastEventCycle {
			if res.ConvergedAt < 0 {
				res.ConvergedAt = cycle
			}
			if !p.KeepRunningAfterPerfect {
				break
			}
		}
	}
	res.Killed, res.Respawned = t.Killed, t.Respawned
	t.Drain(10 * time.Second)
	res.Stats = t.Stats()
	return res, nil
}

// PointFromAggregate converts a (possibly summed cross-process) exact
// measurement into the per-cycle Point all engines report — exported for
// external campaign drivers (cmd/netsim).
func PointFromAggregate(cycle int, agg truth.Aggregate, alive int, sent, dropped, wireUnits int64) Point {
	return pointFromAggregate(cycle, agg, alive, sent, dropped, wireUnits)
}

// AggregateSeries exposes the engine-agnostic per-cycle aggregation used
// by the campaign runners, for external drivers.
func AggregateSeries(series [][]Point, convergedAt []int) []AggPoint {
	return aggregateSeries(series, convergedAt)
}

// WriteAggCSV emits an aggregate series in the shared campaign CSV format.
func WriteAggCSV(w io.Writer, agg []AggPoint, sampled bool) error {
	return writeAggCSV(w, agg, sampled)
}
