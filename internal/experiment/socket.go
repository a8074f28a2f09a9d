package experiment

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/livenet"
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

// SocketTrial is one process's share of a socket campaign, stepped one
// cycle at a time so a multi-process driver (cmd/netsim) can interleave
// its own barriers between cycles. Single-process callers use RunSocket.
type SocketTrial struct {
	*hostTrial
	net *transport.Network
}

// NewSocketTrial builds this process's shard: the transport network, the
// local hosts with their bootstrap nodes, the global membership oracle,
// and the resolved fault plan. Call Start, then StepCycle per cycle.
func NewSocketTrial(p SocketParams, seed int64) (*SocketTrial, error) {
	p = p.withDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	schedule := p.Scenario.Events(seed, p.N, p.Cycles)
	for _, e := range schedule {
		if e.Op == livenet.OpSetLatency {
			return nil, errors.New("experiment: socket engine does not support latency events (the kernel provides the latency)")
		}
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
	t, err := newHostTrial(LiveParams{
		N:                       p.N,
		Config:                  p.Config,
		Period:                  p.Period,
		Cycles:                  p.Cycles,
		Drop:                    p.Drop,
		Scenario:                p.Scenario,
		MeasureWorkers:          p.MeasureWorkers,
		KeepRunningAfterPerfect: p.KeepRunningAfterPerfect,
	}, seed, schedule, net.Runtime, net.LocalHosts(), nil)
	if err != nil {
		net.Close()
		return nil, err
	}
	return &SocketTrial{hostTrial: t, net: net}, nil
}

// Schedule returns the scenario's event plan.
func (t *SocketTrial) Schedule() []livenet.Event { return t.schedule }

// Net exposes the underlying network (driver teardown, stats).
func (t *SocketTrial) Net() *transport.Network { return t.net }

// Start binds the sockets and launches the hosts.
func (t *SocketTrial) Start() error { return t.net.Start() }

// StepCycle runs one campaign cycle: apply the cycle's fault plan, let
// the network gossip for one period, pause the local hosts, measure the
// local members against the global truth, resume. The returned aggregate
// covers only this process's members — integer sums, so a driver adds the
// per-process partials to recover exactly the whole-network measurement —
// alongside the local and global alive counts.
func (t *SocketTrial) StepCycle(cycle int) (agg truth.Aggregate, localAlive, globalAlive int, err error) {
	err = t.runCycle(cycle, func(ms []truth.Member, alive int) {
		agg, localAlive, globalAlive = t.tr.MeasureAll(ms, t.workers), len(ms), alive
	})
	return agg, localAlive, globalAlive, err
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
	res := &SocketResult{Params: p, Seed: seed, Schedule: t.schedule}
	if res.Points, res.ConvergedAt, err = t.drive(); err != nil {
		return nil, err
	}
	res.Killed, res.Respawned = t.Killed, t.Respawned
	t.Drain(10 * time.Second)
	res.Stats = t.Stats()
	return res, nil
}
