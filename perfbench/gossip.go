package main

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/livenet"
	"repro/internal/peer"
	"repro/internal/proto"
	"repro/internal/sampling"
	"repro/internal/transport"
	"repro/internal/truth"
)

// hostEngine is the part of the livenet and transport host runtimes the
// gossip workloads drive; both engines expose the same motions.
type hostEngine interface {
	attach(i int, p proto.Protocol, period, offset time.Duration) error
	start() error
	pauseAll()
	resumeAll()
	kill(i int)
	respawn(i int) error
	stats() transport.Stats
	// drain stops new traffic and waits until the counters settle, so the
	// conservation law can be checked; the engine is closed afterwards.
	drain() error
	close()
}

type liveEngine struct {
	net   *livenet.Network
	hosts []*livenet.Host
}

func newLiveEngine(n int, seed int64) *liveEngine {
	e := &liveEngine{net: livenet.New(livenet.Config{Seed: seed})}
	for i := 0; i < n; i++ {
		e.hosts = append(e.hosts, e.net.AddHost())
	}
	return e
}

func (e *liveEngine) attach(i int, p proto.Protocol, period, offset time.Duration) error {
	return e.hosts[i].Attach(core.ProtoID, p, period, offset)
}
func (e *liveEngine) start() error        { return e.net.Start() }
func (e *liveEngine) pauseAll()           { e.net.PauseAll() }
func (e *liveEngine) resumeAll()          { e.net.ResumeAll() }
func (e *liveEngine) kill(i int)          { e.hosts[i].Kill() }
func (e *liveEngine) respawn(i int) error { return e.hosts[i].Respawn() }
func (e *liveEngine) close()              { e.net.Close() }
func (e *liveEngine) stats() transport.Stats {
	s := e.net.Snapshot()
	return transport.Stats{Sent: s.Sent, Dropped: s.Dropped, Delivered: s.Delivered, Overflow: s.Overflow}
}

// drain closes the network: livenet settles its counters on shutdown.
func (e *liveEngine) drain() error {
	e.net.Close()
	return nil
}

// sockEngine is the socket engine in one process (Procs = 1): every
// message crosses one TCP loopback connection to the process itself.
type sockEngine struct {
	net   *transport.Network
	hosts []*transport.Host
}

// newSockEngine lays out the socket engine on a port the kernel reports
// free; Start binds it.
func newSockEngine(n int, seed int64) (*sockEngine, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	net, err := transport.New(transport.Config{Seed: seed, N: n, Procs: 1, BasePort: port})
	if err != nil {
		return nil, err
	}
	return &sockEngine{net: net, hosts: net.LocalHosts()}, nil
}

func (e *sockEngine) attach(i int, p proto.Protocol, period, offset time.Duration) error {
	return e.hosts[i].Attach(core.ProtoID, p, period, offset)
}

func (e *sockEngine) start() error        { return e.net.Start() }
func (e *sockEngine) pauseAll()           { e.net.PauseAll() }
func (e *sockEngine) resumeAll()          { e.net.ResumeAll() }
func (e *sockEngine) kill(i int)          { e.hosts[i].Kill() }
func (e *sockEngine) respawn(i int) error { return e.hosts[i].Respawn() }
func (e *sockEngine) close()              { e.net.Close() }
func (e *sockEngine) stats() transport.Stats {
	return e.net.Snapshot()
}

func (e *sockEngine) drain() error {
	e.net.StopTicks()
	if !e.net.Quiesce(10 * time.Second) {
		return errors.New("socket engine did not quiesce within 10s")
	}
	return nil
}

// gossipSpec is one host-runtime campaign: the bootstrap protocol on N
// hosts at a fixed gossip period, with kill/respawn waves, a measurement
// barrier every MeasureEvery cycles, and a fault-free tail.
type gossipSpec struct {
	N            int
	Seed         int64
	Socket       bool
	Period       time.Duration
	Cycles       int
	WaveEvery    int // a wave starts every WaveEvery cycles, from WaveEvery/2
	WaveDown     int // cycles a wave's victims stay down
	WaveFrac     float64
	Tail         int // final fault-free cycles
	MeasureEvery int
}

type gossipTrial struct {
	spec    gossipSpec
	tr      *tracer
	top     *lane
	epoch   time.Time
	eng     hostEngine
	descs   []peer.Descriptor
	nodes   []*core.Node
	probes  []*nodeProbe
	alive   []bool
	oracle  *sampling.Oracle
	truth   *truth.Truth
	rng     *rand.Rand
	arena   *peer.DescriptorArena
	measBuf []truth.Member
	// mark is where the current window starts: its wall field holds the
	// absolute time (Unix ns), cpu and ops the process CPU and delivered
	// count at that moment.
	mark window
}

type gossipResult struct {
	// windows are the intervals between measurement barriers.
	windows          []window
	wall, cpu        time.Duration
	traffic          transport.Stats // during the loop
	final            transport.Stats // at quiescence
	rtts, transits   []int64
	pauses           []time.Duration
	heapBytes        uint64
	alive            int
	missingAfterTail float64
}

// newGossipTrial builds and starts the network. The socket engine's port
// was free when probed but a neighbouring process can take it before
// Start binds it; the build is then retried on a fresh port.
func newGossipTrial(spec gossipSpec, tr *tracer) (*gossipTrial, error) {
	for attempt := 1; ; attempt++ {
		t, err := buildGossipTrial(spec, tr)
		if err == nil || !spec.Socket || attempt == 5 {
			return t, err
		}
	}
}

func buildGossipTrial(spec gossipSpec, tr *tracer) (*gossipTrial, error) {
	t := &gossipTrial{spec: spec, tr: tr, top: tr.top(), epoch: time.Now()}
	if tr != nil {
		t.epoch = tr.epoch
	}
	setup := t.top.begin(spSetup, 0)
	defer t.top.end(setup)
	if spec.Socket {
		e, err := newSockEngine(spec.N, spec.Seed)
		if err != nil {
			return nil, err
		}
		t.eng = e
	} else {
		t.eng = newLiveEngine(spec.N, spec.Seed)
	}
	ids := id.Unique(spec.N, spec.Seed+0x11)
	t.descs = make([]peer.Descriptor, spec.N)
	for i := range t.descs {
		t.descs[i] = peer.Descriptor{ID: ids[i], Addr: peer.Addr(i)}
	}
	t.oracle = sampling.NewOracle(t.descs, spec.Seed+0x1234)
	t.rng = rand.New(rand.NewSource(spec.Seed + 0x9e3779b9))
	cfg := core.DefaultConfig()
	t.arena = peer.NewDescriptorArena()
	cfg.Arena = t.arena
	t.alive = make([]bool, spec.N)
	for i, d := range t.descs {
		l := t.tr.newLane()
		var svc sampling.Service = t.oracle.Stream(int64(i))
		if l != nil {
			svc = &samplerProbe{inner: t.oracle.Stream(int64(i)), lane: l}
		}
		node, err := core.NewNode(d, cfg, svc)
		if err != nil {
			t.eng.close()
			return nil, err
		}
		t.nodes = append(t.nodes, node)
		t.alive[i] = true
		var bound proto.Protocol = node
		if l != nil {
			p := newNodeProbe(node, l, t.epoch)
			t.probes = append(t.probes, p)
			bound = p
		}
		offset := time.Duration(t.rng.Int63n(int64(spec.Period)))
		if err := t.eng.attach(i, bound, spec.Period, offset); err != nil {
			t.eng.close()
			return nil, err
		}
	}
	for _, p := range t.probes {
		p.peers = t.probes
	}
	sp := t.top.begin(spTruthNew, 0)
	var err error
	t.truth, err = truth.New(ids, core.DefaultB, core.DefaultK, core.DefaultC)
	t.top.end(sp)
	if err == nil {
		err = t.eng.start()
	}
	if err != nil {
		t.eng.close()
		return nil, err
	}
	return t, nil
}

// closeWindow ends the current window at a barrier.
func (t *gossipTrial) closeWindow() window {
	now := window{wall: time.Duration(time.Now().UnixNano()), cpu: cpuTime(), ops: t.eng.stats().Delivered}
	w := window{wall: now.wall - t.mark.wall, cpu: now.cpu - t.mark.cpu, ops: now.ops - t.mark.ops}
	t.mark = now
	return w
}

// waveAt reports whether a kill wave starts at cycle c.
func (s gossipSpec) waveAt(c int) bool {
	return c%s.WaveEvery == s.WaveEvery/2 && c+s.WaveDown < s.Cycles-s.Tail
}

// measure pauses every host, measures the network exactly, and resumes.
func (t *gossipTrial) measure(res *gossipResult, last bool) float64 {
	p0 := time.Now()
	ps := t.top.begin(spPause, -1)
	t.eng.pauseAll()
	t.top.end(ps)
	res.pauses = append(res.pauses, time.Since(p0))
	res.windows = append(res.windows, t.closeWindow())
	ms := t.measBuf[:0]
	for i, n := range t.nodes {
		if t.alive[i] {
			ms = append(ms, truth.Member{Self: t.descs[i].ID, Leaf: n.Leaf(), Table: n.Table()})
		}
	}
	t.measBuf = ms
	sp := t.top.begin(spTruthMeasure, -1)
	agg := t.truth.MeasureAll(ms, 0)
	t.top.end(sp)
	if last {
		res.heapBytes = liveHeap()
		runtime.KeepAlive(t)
	}
	t.eng.resumeAll()
	return float64(agg.LeafMissing+agg.PrefixMissing) / float64(max(1, agg.LeafTotal+agg.PrefixTotal))
}

func (t *gossipTrial) run() (*gossipResult, error) {
	spec := t.spec
	res := &gossipResult{}
	down := map[int][]int{} // cycle -> hosts to respawn
	st0, cpu0, wall0 := t.eng.stats(), cpuTime(), time.Now()
	t.mark = window{wall: time.Duration(wall0.UnixNano()), cpu: cpu0, ops: st0.Delivered}
	for c := 0; c < spec.Cycles; c++ {
		cs := t.top.begin(spCycle, int64(c))
		if spec.waveAt(c) {
			victims, err := t.killWave()
			if err != nil {
				t.eng.close()
				return nil, err
			}
			down[c+spec.WaveDown] = victims
		}
		if err := t.respawnAll(down[c]); err != nil {
			t.eng.close()
			return nil, err
		}
		time.Sleep(spec.Period)
		last := c == spec.Cycles-1
		if (c+1)%spec.MeasureEvery == 0 || last {
			res.missingAfterTail = t.measure(res, last)
		}
		t.top.end(cs)
	}
	res.wall, res.cpu = time.Since(wall0), cpuTime()-cpu0
	st := t.eng.stats()
	res.traffic = transport.Stats{
		Sent: st.Sent - st0.Sent, Dropped: st.Dropped - st0.Dropped,
		Delivered: st.Delivered - st0.Delivered, Overflow: st.Overflow - st0.Overflow,
	}
	for i := range t.alive {
		if t.alive[i] {
			res.alive++
		}
	}
	err := t.eng.drain()
	res.final = t.eng.stats()
	t.eng.close()
	for _, p := range t.probes {
		res.rtts = append(res.rtts, p.rtts...)
		res.transits = append(res.transits, p.transits...)
	}
	slices.Sort(res.rtts)
	slices.Sort(res.transits)
	return res, err
}

// killWave crashes WaveFrac of the live hosts, chosen by the seeded RNG.
func (t *gossipTrial) killWave() ([]int, error) {
	var up []int
	for i, a := range t.alive {
		if a {
			up = append(up, i)
		}
	}
	k := max(1, int(t.spec.WaveFrac*float64(len(up))))
	perm := t.rng.Perm(len(up))
	victims := make([]int, k)
	removed := make([]id.ID, k)
	for j := 0; j < k; j++ {
		v := up[perm[j]]
		victims[j] = v
		t.alive[v] = false
		ms := t.top.begin(spMembership, -1)
		t.oracle.Remove(t.descs[v].ID)
		t.top.end(ms)
		removed[j] = t.descs[v].ID
		sp := t.top.begin(spKill, -1)
		t.eng.kill(v)
		t.top.end(sp)
	}
	sp := t.top.begin(spTruthUpdate, -1)
	err := t.truth.Update(nil, removed)
	t.top.end(sp)
	return victims, err
}

func (t *gossipTrial) respawnAll(hosts []int) error {
	if len(hosts) == 0 {
		return nil
	}
	added := make([]id.ID, 0, len(hosts))
	for _, v := range hosts {
		sp := t.top.begin(spRespawn, -1)
		err := t.eng.respawn(v)
		t.top.end(sp)
		if err != nil {
			return err
		}
		t.alive[v] = true
		ms := t.top.begin(spMembership, -1)
		t.oracle.Add(t.descs[v])
		t.top.end(ms)
		added = append(added, t.descs[v].ID)
	}
	sp := t.top.begin(spTruthUpdate, -1)
	err := t.truth.Update(added, nil)
	t.top.end(sp)
	return err
}
