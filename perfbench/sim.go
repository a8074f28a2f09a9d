package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/id"
	"repro/internal/peer"
	"repro/internal/sampling"
	"repro/internal/simnet"
	"repro/internal/truth"
)

// simSpec is one simnet trial. The benchmark re-implements the cycle loop of
// experiment.Run, with the same seeds and call order, only so it can time
// the calls into each layer; params gives the experiment.Params whose
// WriteCSV output the benchmark's series must reproduce byte for byte.
type simSpec struct {
	N      int
	Seed   int64
	Shards int
	Churn  experiment.Churn
	// The loop runs at least MinCycles cycles, then stops at the first
	// converged cycle, and never runs more than MaxCycles.
	MinCycles, MaxCycles int
}

func (s simSpec) params(cycles int) experiment.Params {
	return experiment.Params{
		N:                       s.N,
		Seed:                    s.Seed,
		Config:                  core.DefaultConfig(),
		MaxCycles:               cycles,
		Sampler:                 experiment.SamplerOracle,
		Churn:                   s.Churn,
		Shards:                  s.Shards,
		KeepRunningAfterPerfect: true,
	}
}

type simMember struct {
	desc      peer.Descriptor
	node      *core.Node
	alive     bool
	joinCycle int
}

// simTrial is a built network ready for its cycle loop.
type simTrial struct {
	spec       simSpec
	cfg        core.Config
	tr         *tracer
	top        *lane
	epoch      time.Time
	net        *simnet.Network
	rng        *rand.Rand
	idGen      *id.Generator
	oracle     *sampling.Oracle
	samplerSeq int64
	arena      *peer.DescriptorArena
	truth      *truth.Truth
	members    []*simMember
	probes     []*nodeProbe
	cycle      int64
	aliveBuf   []*simMember
	measBuf    []truth.Member
}

// simResult is what one cycle loop measured.
type simResult struct {
	points    []experiment.Point
	converged int
	wall, cpu time.Duration
	events    int
	stats     simnet.Stats
	heapBytes uint64
	alive     int
}

// newSimTrial builds the network, nodes and truth oracle (the set-up the
// benchmark times). A nil tracer attaches the bare core.Node.
func newSimTrial(spec simSpec, tr *tracer) (*simTrial, error) {
	t := &simTrial{spec: spec, cfg: core.DefaultConfig(), tr: tr, top: tr.top(), epoch: time.Now()}
	if tr != nil {
		t.epoch = tr.epoch
	}
	setup := t.top.begin(spSetup, 0)
	defer t.top.end(setup)
	t.net = simnet.New(simnet.Config{Seed: spec.Seed, Shards: spec.Shards})
	t.rng = rand.New(rand.NewSource(spec.Seed + 0x9e3779b9))
	t.idGen = id.NewGenerator(spec.Seed + 0x7f4a7c15)
	t.arena = peer.NewDescriptorArena()
	t.cfg.Arena = t.arena

	descs := make([]peer.Descriptor, spec.N)
	for i := range descs {
		descs[i] = peer.Descriptor{ID: t.idGen.Next(), Addr: t.net.AddNode()}
	}
	t.oracle = sampling.NewOracle(descs, spec.Seed+0x1234)
	for _, d := range descs {
		if err := t.spawn(d); err != nil {
			return nil, err
		}
	}
	ids := make([]id.ID, len(t.members))
	for i, m := range t.members {
		ids[i] = m.desc.ID
	}
	sp := t.top.begin(spTruthNew, 0)
	var err error
	t.truth, err = truth.New(ids, t.cfg.B, t.cfg.K, t.cfg.C)
	t.top.end(sp)
	return t, err
}

// spawn mirrors the experiment harness: per-node oracle streams keyed by
// spawn order on a sharded engine, the shared oracle stream otherwise,
// and a random start offset within one period.
func (t *simTrial) spawn(d peer.Descriptor) error {
	var svc appendSampler = t.oracle
	if t.spec.Shards > 1 {
		t.samplerSeq++
		svc = t.oracle.Stream(t.samplerSeq)
	}
	l := t.tr.newLane()
	var sampler sampling.Service = svc
	if l != nil {
		sampler = &samplerProbe{inner: svc, lane: l}
	}
	node, err := core.NewNode(d, t.cfg, sampler)
	if err != nil {
		return err
	}
	m := &simMember{desc: d, node: node, alive: true, joinCycle: int(t.cycle)}
	t.members = append(t.members, m)
	offset := t.rng.Int63n(t.cfg.Delta)
	if l == nil {
		return t.net.Attach(d.Addr, core.ProtoID, node, t.cfg.Delta, offset)
	}
	p := newNodeProbe(node, l, t.epoch)
	p.cycle = &t.cycle
	t.probes = append(t.probes, p)
	return t.net.Attach(d.Addr, core.ProtoID, p, t.cfg.Delta, offset)
}

func (t *simTrial) aliveMembers() []*simMember {
	out := t.aliveBuf[:0]
	for _, m := range t.members {
		if m.alive {
			out = append(out, m)
		}
	}
	t.aliveBuf = out
	return out
}

// churn replaces Rate·N random live nodes, as the experiment harness does.
func (t *simTrial) churn() error {
	n := int(t.spec.Churn.Rate * float64(t.spec.N))
	if n == 0 && t.spec.Churn.Rate > 0 {
		n = 1
	}
	alive := t.aliveMembers()
	n = min(n, len(alive))
	perm := t.rng.Perm(len(alive))
	removed := make([]id.ID, n)
	for i := 0; i < n; i++ {
		victim := alive[perm[i]]
		victim.alive = false
		t.net.Kill(victim.desc.Addr)
		victim.node.Release()
		sp := t.top.begin(spMembership, -1)
		t.oracle.Remove(victim.desc.ID)
		t.top.end(sp)
		removed[i] = victim.desc.ID
	}
	added := make([]id.ID, n)
	for i := 0; i < n; i++ {
		d := peer.Descriptor{ID: t.idGen.Next(), Addr: t.net.AddNode()}
		sp := t.top.begin(spMembership, -1)
		t.oracle.Add(d)
		t.top.end(sp)
		if err := t.spawn(d); err != nil {
			return err
		}
		added[i] = d.ID
	}
	sp := t.top.begin(spTruthUpdate, -1)
	err := t.truth.Update(added, removed)
	t.top.end(sp)
	return err
}

// measure is the exact per-cycle measurement of the experiment harness.
func (t *simTrial) measure(cycle int) experiment.Point {
	alive := t.aliveMembers()
	ms := t.measBuf[:0]
	for _, m := range alive {
		ms = append(ms, truth.Member{
			Self: m.desc.ID, Leaf: m.node.Leaf(), Table: m.node.Table(),
			Fresh: cycle-m.joinCycle < 2,
		})
	}
	t.measBuf = ms
	st := t.net.Stats()
	sp := t.top.begin(spTruthMeasure, -1)
	agg := t.truth.MeasureAll(ms, 0)
	t.top.end(sp)
	pt := experiment.Point{
		Cycle:         cycle,
		LeafPerfect:   agg.LeafPerfect,
		PrefixPerfect: agg.PrefixPerfect,
		LeafDead:      agg.LeafDead,
		PrefixDead:    agg.PrefixDead,
		Alive:         len(alive),
		Sent:          st.Sent,
		Dropped:       st.Dropped,
		WireUnits:     st.WireUnits,
	}
	if agg.LeafTotal > 0 {
		pt.LeafMissing = float64(agg.LeafMissing) / float64(agg.LeafTotal)
	}
	if agg.PrefixTotal > 0 {
		pt.PrefixMissing = float64(agg.PrefixMissing) / float64(agg.PrefixTotal)
	}
	return pt
}

// run is the timed cycle loop.
func (t *simTrial) run() (*simResult, error) {
	res := &simResult{converged: -1}
	delta := t.cfg.Delta
	start := t.net.Now()
	cpu0, wall0 := cpuTime(), time.Now()
	for cycle := 0; cycle < t.spec.MaxCycles; cycle++ {
		t.cycle = int64(cycle)
		cs := t.top.begin(spCycle, int64(cycle))
		if t.spec.Churn.Active(cycle) {
			if err := t.churn(); err != nil {
				return nil, err
			}
		}
		rs := t.top.begin(spSimRun, -1)
		res.events += t.net.Run(start + int64(cycle+1)*delta)
		t.top.end(rs)
		pt := t.measure(cycle)
		t.top.end(cs)
		res.points = append(res.points, pt)
		perfect := pt.LeafMissing == 0 && pt.PrefixMissing == 0
		if perfect && res.converged < 0 {
			res.converged = cycle
		}
		if perfect && cycle+1 >= t.spec.MinCycles {
			break
		}
	}
	res.wall, res.cpu = time.Since(wall0), cpuTime()-cpu0
	res.stats = t.net.Stats()
	res.alive = len(t.aliveMembers())
	res.heapBytes = liveHeap()
	runtime.KeepAlive(t)
	return res, nil
}

// csv renders a series the way experiment.Result.WriteCSV does.
func (s simSpec) csv(points []experiment.Point) (string, error) {
	var b strings.Builder
	res := &experiment.Result{Params: s.params(len(points)), Points: points}
	if err := res.WriteCSV(&b); err != nil {
		return "", err
	}
	return b.String(), nil
}

// checkAgainstHarness runs the same spec through experiment.Run and
// compares the per-cycle series, converged cycle and final counters.
func checkAgainstHarness(spec simSpec, res *simResult) error {
	want, err := experiment.Run(spec.params(len(res.points)))
	if err != nil {
		return err
	}
	got, err := spec.csv(res.points)
	if err != nil {
		return err
	}
	var wb strings.Builder
	if err := want.WriteCSV(&wb); err != nil {
		return err
	}
	if got != wb.String() {
		return fmt.Errorf("benchmark loop series differs from experiment.Run at n=%d seed=%d", spec.N, spec.Seed)
	}
	if want.ConvergedAt != res.converged || want.Stats != res.stats {
		return fmt.Errorf("benchmark loop converged=%d stats=%+v, experiment.Run converged=%d stats=%+v",
			res.converged, res.stats, want.ConvergedAt, want.Stats)
	}
	return nil
}

// runSim builds and runs one trial.
func runSim(spec simSpec, tr *tracer) (*simResult, error) {
	t, err := newSimTrial(spec, tr)
	if err != nil {
		return nil, err
	}
	return t.run()
}
