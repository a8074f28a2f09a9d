// Package livenet is a concurrent in-memory network runtime: one goroutine
// per host drives the same protocol state machines that run under the
// deterministic simulator, over a channel-based transport with optional
// loss, latency, and bounded inboxes (UDP-like semantics). It demonstrates
// that the protocol implementations are engine-agnostic and exercises them
// under real concurrency; run the tests with -race.
//
// Beyond plain message passing the runtime exposes a host lifecycle API —
// Pause/Resume (freeze a host between callbacks, e.g. for a consistent
// whole-network measurement), Kill/Respawn (crash-recovery churn) — and a
// runtime-mutable fault model (SetDrop, SetLatency, SetPartition) that the
// scenario layer (scenario.go) drives during campaign runs.
package livenet

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hostrt"
	"repro/internal/peer"
	"repro/internal/proto"
	"repro/internal/sched"
)

// Config parameterises the runtime. Drop and the latency bounds are only
// the initial fault model; SetDrop/SetLatency/SetPartition change it while
// the network runs.
type Config struct {
	// Seed drives the loss and latency models and per-host RNGs.
	Seed int64
	// Drop is the per-message loss probability.
	Drop float64
	// MinLatency and MaxLatency bound the uniform delivery latency.
	MinLatency, MaxLatency time.Duration
	// InboxSize bounds each host's message queue; messages arriving at
	// a full inbox are dropped, as UDP would. Zero selects 256.
	InboxSize int
}

// The host runtime and its traffic counters are hostrt's; these aliases
// keep the engine's exported surface.
type (
	Host      = hostrt.Host
	Stats     = hostrt.Stats
	HostStats = hostrt.HostStats
)

// ErrClosed is returned by Start and Respawn after Close.
var ErrClosed = hostrt.ErrClosed

// latencyWindow is an immutable [min, max] delivery latency pair; SetLatency
// swaps the whole window atomically so senders never observe a torn pair.
type latencyWindow struct {
	min, max time.Duration
}

// Network is a concurrent in-memory network of hosts: the shared host
// runtime plus livenet's send path, a latency draw followed by either a
// direct inbox handoff or a flight on the timing-wheel wire.
//
// The send path is deliberately lock-free: the fault model lives in
// atomics (the latency window behind an atomic pointer here, the rest in
// the runtime) and the per-send randomness comes from the sending host's
// private RNG, so concurrent senders never serialise on Network.mu. The
// mutex only guards host registration.
type Network struct {
	*hostrt.Runtime
	cfg   Config
	mu    sync.Mutex
	rng   *rand.Rand // guarded by mu: host seeding (AddHost, pre-Start)
	hosts []*Host    // by address; append-only before Start, read lock-free afterwards
	lat   atomic.Pointer[latencyWindow]
	wire  *wire
}

// New returns a network ready for AddHost/Attach; call Start to run it.
func New(cfg Config) *Network {
	if cfg.MaxLatency < cfg.MinLatency {
		cfg.MaxLatency = cfg.MinLatency
	}
	n := &Network{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	n.Runtime = hostrt.New(cfg.InboxSize, cfg.Drop, func(from *Host, to peer.Addr, pid proto.ProtoID, msg proto.Message) {
		n.send(from.Addr(), to, pid, msg)
	})
	n.lat.Store(&latencyWindow{min: cfg.MinLatency, max: cfg.MaxLatency})
	n.wire = newWire(n)
	return n
}

// SetLatency changes the delivery latency window at runtime.
func (n *Network) SetLatency(min, max time.Duration) {
	if max < min {
		max = min
	}
	n.lat.Store(&latencyWindow{min: min, max: max})
}

// AddHost allocates a host. All hosts must be added, and their protocols
// attached, before Start. Host RNG seeds are drawn in AddHost order.
func (n *Network) AddHost() *Host {
	n.mu.Lock()
	defer n.mu.Unlock()
	h := n.Runtime.AddHost(peer.Addr(len(n.hosts)), n.rng.Int63(), n.rng.Int63())
	n.hosts = append(n.hosts, h)
	return h
}

// Start launches the wire sweeper and every live host goroutine, and
// begins ticking.
func (n *Network) Start() error {
	return n.Runtime.Start(func(spawn func(func())) error {
		spawn(n.wire.loop)
		return nil
	})
}

// Close stops all hosts, waits for them to exit, and settles the traffic
// accounting: in-flight and queued-but-undispatched messages are counted
// as dropped, so the conservation law documented on Stats holds. It is
// idempotent.
func (n *Network) Close() { n.Runtime.Close(nil, n.wire.drain) }

// command is one delivery in flight on the wire.
type command struct {
	from peer.Addr
	pid  proto.ProtoID
	msg  proto.Message
}

// send applies the fault model and enqueues the delivery, either directly
// or through the wire for latency. It runs entirely lock-free — fault
// model from atomics, randomness from the sender's private RNG, host table
// immutable after Start — so concurrent senders never contend. It must
// only be called from the sending host's callback goroutine (the only
// place protocols can send from).
func (n *Network) send(from, to peer.Addr, pid proto.ProtoID, msg proto.Message) {
	src := n.hosts[from]
	if !n.Admit(src, to, msg) {
		return
	}
	var lat time.Duration
	if w := n.lat.Load(); w.max > 0 {
		span := int64(w.max - w.min)
		lat = w.min
		if span > 0 {
			lat += time.Duration(src.SendRNG().Int63n(span + 1))
		}
	}
	if int(to) < 0 || int(to) >= len(n.hosts) {
		n.Discard(msg)
		return
	}
	dst := n.hosts[to]
	if lat <= 0 {
		n.Deliver(dst, from, pid, msg)
		return
	}
	n.wire.enqueue(from, lat, dst, command{from: from, pid: pid, msg: msg})
}

// wire models propagation delay with sharded timing wheels: each shard is a
// calendar queue (internal/sched) of in-flight messages keyed on
// nanoseconds since the wire's epoch, guarded by its own mutex, and a
// single sweeper goroutine harvests expired entries from every shard.
// Senders hash to a shard by their own address, so concurrent
// latency-delayed sends from different hosts never contend on one lock —
// the old single `wire.mu` + container/heap was the last global mutex on
// the live data plane (and its interface{} boxing the last reflection on
// the send path). Replacing per-message time.AfterFunc with the wheels also
// keeps shutdown deterministic — Close drains the shards and counts
// stranded messages as dropped — and scales to 10k+ hosts without a timer
// goroutine per message.
type wire struct {
	net    *Network
	epoch  time.Time // monotonic zero for wheel deadlines
	shards []wireShard
	mask   uint32
	wake   chan struct{}
	// scratch collects due flights under each shard lock so delivery (and
	// message recycling) runs with no lock held. Sweeper-goroutine-only.
	scratch []flight
}

// wireShard is one lock-striped timing wheel. next is the earliest deadline
// the sweeper has promised to service for this shard (MaxInt64 when it
// believes the shard is empty); an enqueue with a strictly earlier deadline
// must wake the sweeper, and only such an enqueue must — comparing against
// the sweeper's promise rather than the heap head fixes the old wake check
// (`w.heap[0].at == at`), which compared by value and could both miss a new
// earliest deadline and fire spuriously on ties.
//
// No padding against false sharing: sched.Queue is several cache lines of
// slice headers on its own, so adjacent shards' hot words already land on
// distinct lines.
type wireShard struct {
	mu   sync.Mutex
	q    sched.Queue[flight]
	next int64
}

type flight struct {
	dst *Host
	cmd command
}

// Wheel geometry: 2^17 ns (~131 µs) buckets, 512 of them — a ~67 ms window
// covering the latency configs the campaigns run (100 µs – a few ms);
// longer latencies route through the wheels' overflow level.
const (
	wireShift   = 17
	wireBuckets = 512
)

// wireShardCount picks a power-of-two shard count: enough stripes that
// GOMAXPROCS concurrently sending hosts rarely collide, bounded so the
// sweeper's per-pass scan stays trivial.
func wireShardCount() int {
	n := 8
	for n < runtime.GOMAXPROCS(0) && n < 64 {
		n <<= 1
	}
	return n
}

func newWire(n *Network) *wire { return newWireShards(n, wireShardCount()) }

func newWireShards(n *Network, shardCount int) *wire {
	w := &wire{
		net:    n,
		epoch:  time.Now(),
		shards: make([]wireShard, shardCount),
		mask:   uint32(shardCount - 1),
		wake:   make(chan struct{}, 1),
	}
	for i := range w.shards {
		w.shards[i].q = *sched.New[flight](wireShift, wireBuckets)
		w.shards[i].next = math.MaxInt64
	}
	return w
}

// enqueue schedules delivery after delay on the sender's shard. Lock-free
// with respect to every other sender outside the shard stripe: the only
// mutex taken is the shard's own, and the sweeper is woken only when this
// deadline is strictly earlier than the one it is sleeping toward.
func (w *wire) enqueue(from peer.Addr, delay time.Duration, dst *Host, cmd command) {
	at := int64(time.Since(w.epoch) + delay)
	s := &w.shards[uint32(from)&w.mask]
	s.mu.Lock()
	s.q.Push(at, flight{dst: dst, cmd: cmd})
	earlier := at < s.next
	if earlier {
		s.next = at
	}
	s.mu.Unlock()
	if earlier {
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
}

// loop is the sweeper: it harvests every shard's expired buckets into a
// scratch buffer, delivers outside the locks, then sleeps until the
// earliest pending deadline (or a wake from an earlier enqueue). It exits
// on network stop; Close then drains what remains.
func (w *wire) loop() {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		now := int64(time.Since(w.epoch))
		next := int64(math.MaxInt64)
		w.scratch = w.scratch[:0]
		for i := range w.shards {
			s := &w.shards[i]
			s.mu.Lock()
			w.scratch = s.q.AppendDue(now, w.scratch)
			if t, ok := s.q.PeekTime(); ok {
				s.next = t
				if t < next {
					next = t
				}
			} else {
				s.next = math.MaxInt64
			}
			s.mu.Unlock()
		}
		for i := range w.scratch {
			f := w.scratch[i]
			w.net.Deliver(f.dst, f.cmd.from, f.cmd.pid, f.cmd.msg)
			w.scratch[i] = flight{}
		}
		sleep := time.Hour
		if next != math.MaxInt64 {
			sleep = time.Duration(next - int64(time.Since(w.epoch)))
			if sleep < 0 {
				sleep = 0
			}
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(sleep)
		select {
		case <-w.net.Done():
			return
		case <-w.wake:
		case <-timer.C:
		}
	}
}

// drain counts every message still in flight as dropped. Only called after
// the loop goroutine has exited, but it takes the shard locks anyway so a
// straggling sender (a host goroutine finishing its last callback) cannot
// race the teardown accounting.
func (w *wire) drain() {
	for i := range w.shards {
		s := &w.shards[i]
		s.mu.Lock()
		s.q.Drain(func(f flight) { w.net.Discard(f.cmd.msg) })
		s.next = math.MaxInt64
		s.mu.Unlock()
	}
}
