// Package hostrt is the host runtime the two goroutine engines share:
// livenet (in-memory channels) and transport (real sockets). It owns
// everything about a host that does not depend on how a message travels:
// one goroutine per host incarnation draining a bounded inbox, the
// pid-sorted protocol bindings with per-binding tick coalescing, the
// Attach/Kill/Respawn/Pause/Resume lifecycle, the start/close handshake,
// the sender-side fault model (SetDrop, SetPartition), and the four
// conserved traffic counters.
//
// An engine supplies its send path as a SendFunc — the single seam — and
// reports what becomes of each message through Admit, Deliver, Discard and
// Overflow, so that at quiescence
//
//	Sent == Delivered + Dropped + Overflow
//
// holds for every engine (summed over processes for a sharded one).
package hostrt

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/peer"
	"repro/internal/proto"
)

// Stats is a snapshot of the network traffic counters. At quiescence
// (after Close) the counters are conserved:
//
//	Sent == Delivered + Dropped + Overflow
//
// Every sent message is eventually dispatched to a protocol (Delivered),
// rejected by the fault model, addressed to a dead or unknown host, or
// stranded in flight at shutdown (Dropped), or bounced off a full queue
// (Overflow).
type Stats struct {
	Sent      int64
	Dropped   int64
	Delivered int64
	Overflow  int64
}

// Add accumulates another snapshot's counters (another trial's or another
// process's).
func (s *Stats) Add(o Stats) {
	s.Sent += o.Sent
	s.Dropped += o.Dropped
	s.Delivered += o.Delivered
	s.Overflow += o.Overflow
}

// HostStats is a per-host traffic snapshot.
type HostStats struct {
	// Delivered counts messages dispatched to this host's protocols.
	Delivered int64
	// Overflow counts messages bounced off this host's full inbox.
	Overflow int64
	// Ticks counts protocol tick callbacks run on this host.
	Ticks int64
	// Incarnations counts how many times the host has been (re)started.
	Incarnations int64
}

// ErrClosed is returned by Start and Respawn after Close.
var ErrClosed = errors.New("hostrt: network closed")

// SendFunc is an engine's send path: it carries msg from a protocol on
// from to the protocol pid at address to. It runs on from's callback
// goroutine and must account the message exactly once — through Admit
// first, then Deliver, Discard or Overflow (directly or on the receiving
// side of the engine's medium).
type SendFunc func(from *Host, to peer.Addr, pid proto.ProtoID, msg proto.Message)

// partitionFunc is a cut predicate; see SetPartition.
type partitionFunc func(from, to peer.Addr) bool

// Runtime is the set of hosts one engine instance runs.
//
// The send-side state — fault model and counters — is atomics only, so
// concurrent senders never serialise on mu. The mutex guards cold
// control-plane state: host registration and the closing handshake.
type Runtime struct {
	inboxSize int
	send      SendFunc

	mu      sync.Mutex
	hosts   []*Host // guarded by mu; append-only before Start
	closing bool    // guarded by mu: no wg.Add once set
	wg      sync.WaitGroup
	stop    chan struct{}
	closed  atomic.Bool
	started atomic.Bool
	start   time.Time
	noTicks atomic.Bool // StopTicks: quiesce the tick sources

	// Mutable fault model, read lock-free on every send.
	dropBits  atomic.Uint64 // math.Float64bits of the drop probability
	partition atomic.Pointer[partitionFunc]

	sent, dropped, delivered, overflow atomic.Int64
}

// New returns a runtime whose hosts have inboxes of inboxSize commands
// (zero selects 256) and lose each message with probability drop; send is
// the engine's send path.
func New(inboxSize int, drop float64, send SendFunc) *Runtime {
	if inboxSize <= 0 {
		inboxSize = 256
	}
	r := &Runtime{inboxSize: inboxSize, send: send, stop: make(chan struct{})}
	r.dropBits.Store(math.Float64bits(drop))
	return r
}

// AddHost registers a host at addr whose protocol-visible RNG is seeded
// with seed and whose send-path RNG is seeded with sendSeed. Hosts must be
// added, and their protocols attached, before Start.
func (r *Runtime) AddHost(addr peer.Addr, seed, sendSeed int64) *Host {
	h := &Host{
		rt:      r,
		addr:    addr,
		inbox:   make(chan command, r.inboxSize),
		rng:     rand.New(rand.NewSource(seed)),
		sendRNG: rand.New(rand.NewSource(sendSeed)),
		ctrl:    make(chan ctrlMsg),
		inc:     newIncarnation(),
	}
	r.mu.Lock()
	r.hosts = append(r.hosts, h)
	r.mu.Unlock()
	return h
}

// SetDrop changes the sender-side per-message loss probability at runtime.
func (r *Runtime) SetDrop(p float64) { r.dropBits.Store(math.Float64bits(p)) }

// SetPartition installs a cut predicate applied on the sender: messages
// for which fn(from, to) reports true are dropped. Passing nil heals the
// partition. fn must be pure, fast, and safe for concurrent use; it is
// called lock-free on the sender's goroutine. A sharded engine needs the
// same predicate on every process for a coherent global partition.
func (r *Runtime) SetPartition(fn func(from, to peer.Addr) bool) {
	if fn == nil {
		r.partition.Store(nil)
		return
	}
	pf := partitionFunc(fn)
	r.partition.Store(&pf)
}

// StopTicks stops every tick source without touching the hosts: queued
// and in-flight traffic keeps flowing and replies are still generated,
// but no new gossip rounds start. It is irreversible for the runtime's
// lifetime.
func (r *Runtime) StopTicks() { r.noTicks.Store(true) }

// Done is closed when Close begins; engine goroutines exit on it.
func (r *Runtime) Done() <-chan struct{} { return r.stop }

// Admit counts one send from h to to and applies the sender-side fault
// model. It reports false when the loss model or the partition rejects
// the message, which is then already counted Dropped and retired. Call it
// only from h's callback goroutine: it draws from h's send-path RNG.
func (r *Runtime) Admit(h *Host, to peer.Addr, msg proto.Message) bool {
	r.sent.Add(1)
	p := math.Float64frombits(r.dropBits.Load())
	if p > 0 && h.sendRNG.Float64() < p {
		r.Discard(msg)
		return false
	}
	if cut := r.partition.Load(); cut != nil && (*cut)(h.addr, to) {
		r.Discard(msg)
		return false
	}
	return true
}

// Deliver places a message in dst's inbox; the host goroutine later
// dispatches it (Delivered, or Dropped if no protocol is bound at pid).
// Messages for dead hosts still enter the inbox while it has room (Kill
// and Close drain it as Dropped — checking liveness before every enqueue
// would race with Kill's drain, and the accounting comes out the same);
// only when the inbox is full does liveness pick the outcome, so a dead
// host's steady-state losses read as Dropped, not inbox pressure
// (Overflow).
func (r *Runtime) Deliver(dst *Host, from peer.Addr, pid proto.ProtoID, msg proto.Message) {
	select {
	case dst.inbox <- command{from: from, pid: pid, msg: msg}:
	case <-r.stop:
		r.Discard(msg)
	default:
		if dst.Stopped() {
			r.Discard(msg)
			return
		}
		r.overflow.Add(1)
		dst.overflow.Add(1)
		recycle(msg)
	}
}

// Discard counts one sent message as Dropped and retires it. msg is nil
// for traffic that no longer is a message (an encoded frame).
func (r *Runtime) Discard(msg proto.Message) {
	r.dropped.Add(1)
	recycle(msg)
}

// Overflow counts one sent message bounced off a full sender-side queue;
// the caller has already retired it.
func (r *Runtime) Overflow() { r.overflow.Add(1) }

// recycle retires a message (see proto.Recyclable): called exactly once
// per message, after its Handle returns or on any drop/overflow/drain
// path. sync.Pool's Put/Get establish the cross-goroutine ordering.
func recycle(m proto.Message) {
	if r, ok := m.(proto.Recyclable); ok {
		r.Recycle()
	}
}

// Start launches every host that is not dead and begins ticking. launch,
// if non-nil, runs first, under the lock that orders every launch before
// Close: it binds what the engine's send path needs and starts the
// engine's own goroutines through spawn, which Close waits for like host
// goroutines. An error from launch aborts Start.
func (r *Runtime) Start(launch func(spawn func(func())) error) error {
	if r.closed.Load() {
		return ErrClosed
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closing {
		return ErrClosed
	}
	if r.started.Load() {
		return errors.New("hostrt: network already started")
	}
	if launch != nil {
		if err := launch(r.spawnLocked); err != nil {
			return err
		}
	}
	// Publish started only now, under mu and after r.start is written:
	// Respawn checks it (under mu) to decide whether to launch, and a
	// launched goroutine reads r.start in Context.Now.
	r.start = time.Now()
	r.started.Store(true)
	// Launch hosts while still holding mu: every wg.Add must be ordered
	// before a concurrent Close sets closing and calls wg.Wait (the same
	// discipline Respawn follows), or goroutines could start after Close
	// has already drained and snapshotted.
	for _, h := range r.hosts {
		h.mu.Lock()
		inc := h.inc
		if inc.dead() || inc.running {
			h.mu.Unlock()
			continue
		}
		inc.running = true
		r.wg.Add(1)
		h.mu.Unlock()
		go h.run(inc)
	}
	return nil
}

// spawnLocked runs fn on a goroutine Close waits for. Callers hold mu and
// have checked closing.
func (r *Runtime) spawnLocked(fn func()) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		fn()
	}()
}

// Go runs fn on a goroutine Close waits for, unless Close has begun; it
// reports whether fn was launched. admit, if non-nil, runs first under the
// same lock, so whatever it registers is visible to Close's teardown.
func (r *Runtime) Go(admit, fn func()) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closing {
		return false
	}
	if admit != nil {
		admit()
	}
	r.spawnLocked(fn)
	return true
}

// Close stops every host and engine goroutine, waits for them to exit, and
// settles the accounting so the conservation law documented on Stats
// holds. teardown, if non-nil, runs once the stop signal is out: it
// unblocks engine goroutines waiting on something other than Done
// (sockets). settle, if non-nil, runs after every goroutine has exited: it
// counts what the engine's medium still holds as dropped. Inboxes drain
// last. Close is idempotent.
func (r *Runtime) Close(teardown, settle func()) {
	if r.closed.Swap(true) {
		return
	}
	r.mu.Lock()
	r.closing = true
	r.mu.Unlock()
	close(r.stop)
	if teardown != nil {
		teardown()
	}
	r.wg.Wait()
	if settle != nil {
		settle()
	}
	r.mu.Lock()
	hosts := r.hosts
	r.mu.Unlock()
	for _, h := range hosts {
		h.drainInbox()
	}
}

// PauseAll pauses every live host, in parallel, and returns once all of
// them are parked. Combined with ResumeAll it brackets a consistent
// whole-network measurement without stopping the clock.
func (r *Runtime) PauseAll() { r.controlAll(true) }

// ResumeAll resumes every live host.
func (r *Runtime) ResumeAll() { r.controlAll(false) }

func (r *Runtime) controlAll(pause bool) {
	r.mu.Lock()
	hosts := make([]*Host, len(r.hosts))
	copy(hosts, r.hosts)
	r.mu.Unlock()
	forEach(hosts, func(h *Host) { h.control(pause) })
}

// KillAll kills hosts in parallel and returns once every one is down.
// Each Kill blocks until its victim's goroutine exits, and paying those
// scheduler round-trips serially makes a 1000-host wave take minutes on a
// loaded machine.
func KillAll(hosts []*Host) { forEach(hosts, (*Host).Kill) }

// forEach applies fn to every host from a pool of workers. The calls are
// wait-bound (each blocks until the target host goroutine gets scheduled),
// not CPU-bound, so the pool fans out far wider than GOMAXPROCS: serial
// handshakes pay one full scheduling round-trip per host, which at
// thousands of hosts turns a measurement barrier into seconds.
func forEach(hosts []*Host, fn func(*Host)) {
	workers := min(256, len(hosts))
	if workers < 1 {
		return
	}
	var wg sync.WaitGroup
	next := make(chan *Host, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for h := range next {
				fn(h)
			}
		}()
	}
	for _, h := range hosts {
		next <- h
	}
	close(next)
	wg.Wait()
}

// Snapshot returns a consistent snapshot of the traffic counters: the
// four counters are re-read until two consecutive passes agree, so a
// mid-run snapshot is a plausible cut of the counter stream rather than
// four unrelated instants. At quiescence (after Close) it is exact and
// satisfies Sent == Delivered + Dropped + Overflow.
func (r *Runtime) Snapshot() Stats {
	prev := r.readStats()
	for i := 0; i < 8; i++ {
		cur := r.readStats()
		if cur == prev {
			return cur
		}
		prev = cur
	}
	return prev
}

func (r *Runtime) readStats() Stats {
	// Sent is read last: every message is counted sent before it can be
	// counted delivered/dropped/overflowed, so with monotonic counters
	// this ordering guarantees Delivered+Dropped+Overflow <= Sent even
	// for a torn read — a snapshot can undercount outcomes, never show
	// more outcomes than sends.
	st := Stats{
		Dropped:   r.dropped.Load(),
		Delivered: r.delivered.Load(),
		Overflow:  r.overflow.Load(),
	}
	st.Sent = r.sent.Load()
	return st
}

// Stats returns a snapshot of the traffic counters; see Snapshot.
func (r *Runtime) Stats() Stats { return r.Snapshot() }

// command is one unit of work for a host goroutine.
type command struct {
	// tick is non-nil for tick commands.
	tick *binding
	// from/pid/msg describe a delivery.
	from peer.Addr
	pid  proto.ProtoID
	msg  proto.Message
}

// binding is one (protocol, schedule) pair, stored by value in the host's
// pid-sorted bindings slice — the slice is the only protocol registry (no
// shadow map), and at the two-or-three bindings a bootstrap host carries a
// linear scan of a contiguous value slice beats a map lookup while costing
// a single allocation for the whole registry. The slice is sealed at Start
// (Attach must precede it), so interior pointers taken by the host
// goroutine (tick commands, the init channel) remain stable for the life
// of the runtime.
type binding struct {
	pid    proto.ProtoID
	p      proto.Protocol
	period time.Duration
	offset time.Duration
	// tickQueued coalesces tick commands: at most one tick per binding
	// sits in the inbox at a time. Without this a host that falls behind
	// (or is paused for a measurement) accumulates a backlog of stale
	// ticks and then fires a catch-up gossip storm — hundreds of extra
	// messages per host — instead of just resuming at its period.
	//
	// A bare uint32 driven through sync/atomic rather than atomic.Bool:
	// the wrapper embeds a noCopy guard, which would (correctly) trip
	// vet's copylocks on the by-value appends Attach performs before the
	// slice is sealed. The atomics only start once Start launches the
	// goroutines, after the last copy.
	tickQueued uint32
}

// incarnation is one life of a host: the channels that end it. Kill closes
// down and waits for exited; Respawn installs a fresh incarnation.
type incarnation struct {
	down     chan struct{}
	downOnce sync.Once
	exited   chan struct{}
	running  bool // goroutine launched (guarded by Host.mu)
}

func newIncarnation() *incarnation {
	return &incarnation{down: make(chan struct{}), exited: make(chan struct{})}
}

func (inc *incarnation) kill() { inc.downOnce.Do(func() { close(inc.down) }) }

func (inc *incarnation) dead() bool {
	select {
	case <-inc.down:
		return true
	default:
		return false
	}
}

// ctrlMsg is a pause/resume handshake. ack is closed by the host goroutine
// once the command takes effect.
type ctrlMsg struct {
	pause bool
	ack   chan struct{}
}

// Host is one node: a mailbox plus the protocols attached to it. All
// protocol callbacks run on the host's single goroutine.
type Host struct {
	rt    *Runtime
	addr  peer.Addr
	inbox chan command
	rng   *rand.Rand
	// sendRNG drives this host's outbound fault-model decisions (and any
	// the engine's send path adds, such as latency). It is distinct from
	// the protocol-visible rng and is only touched from the host's own
	// callback goroutine, so the send path needs no lock.
	sendRNG *rand.Rand
	// bindings is sorted by pid and sealed at Start; it doubles as the
	// dispatch table (find) and the tick schedule.
	bindings []binding
	ctrl     chan ctrlMsg

	mu  sync.Mutex // lifecycle state
	inc *incarnation

	delivered, overflow, ticks, incarnations atomic.Int64
}

// hostContext implements proto.Context for host callbacks; one per binding
// so Send routes to the caller's own protocol on the peer.
type hostContext struct {
	h   *Host
	pid proto.ProtoID
}

var _ proto.Context = hostContext{}

func (c hostContext) Self() peer.Addr  { return c.h.addr }
func (c hostContext) Now() int64       { return time.Since(c.h.rt.start).Milliseconds() }
func (c hostContext) Rand() *rand.Rand { return c.h.rng }
func (c hostContext) Send(to peer.Addr, msg proto.Message) {
	c.h.rt.send(c.h, to, c.pid, msg)
}

// Addr returns the host's address.
func (h *Host) Addr() peer.Addr { return h.addr }

// SendRNG returns the host's send-path RNG; see Admit for who may use it.
func (h *Host) SendRNG() *rand.Rand { return h.sendRNG }

// Stats returns the host's per-host counters.
func (h *Host) Stats() HostStats {
	return HostStats{
		Delivered:    h.delivered.Load(),
		Overflow:     h.overflow.Load(),
		Ticks:        h.ticks.Load(),
		Incarnations: h.incarnations.Load(),
	}
}

// Attach binds a protocol to the host. period zero installs a purely
// reactive protocol. Must be called before Start.
func (h *Host) Attach(pid proto.ProtoID, p proto.Protocol, period, offset time.Duration) error {
	if h.find(pid) != nil {
		return fmt.Errorf("hostrt attach: protocol %d already bound at host %d", pid, h.addr)
	}
	h.bindings = append(h.bindings, binding{pid: pid, p: p, period: period, offset: offset})
	for i := len(h.bindings) - 1; i > 0 && h.bindings[i].pid < h.bindings[i-1].pid; i-- {
		h.bindings[i], h.bindings[i-1] = h.bindings[i-1], h.bindings[i]
	}
	return nil
}

// find returns the binding for pid, or nil. The returned pointer is stable
// once the runtime has started (the slice is sealed at Start).
func (h *Host) find(pid proto.ProtoID) *binding {
	for i := range h.bindings {
		if h.bindings[i].pid == pid {
			return &h.bindings[i]
		}
	}
	return nil
}

// Kill crashes the host: its goroutine exits, its tickers stop, and
// messages addressed to it are dropped. It waits for the host goroutine
// to finish its current callback, so the host's protocol state may be
// inspected safely afterwards, and drains messages already queued in the
// inbox, counting them as dropped. Safe to call multiple times and safe
// to call concurrently with Respawn and with senders.
func (h *Host) Kill() {
	for {
		h.mu.Lock()
		inc := h.inc
		h.mu.Unlock()
		inc.kill()
		h.mu.Lock()
		running := inc.running
		h.mu.Unlock()
		if running {
			<-inc.exited
		}
		h.drainInbox()
		h.mu.Lock()
		same := h.inc == inc
		h.mu.Unlock()
		if same {
			return
		}
		// A concurrent Respawn swapped in a fresh incarnation between
		// our read and now; kill that one too, or we would return with
		// the host still running.
	}
}

// drainInbox discards queued deliveries, counting them as dropped. Tick
// commands are runtime-internal and do not touch the traffic counters.
func (h *Host) drainInbox() {
	for {
		select {
		case cmd := <-h.inbox:
			if cmd.tick != nil {
				atomic.StoreUint32(&cmd.tick.tickQueued, 0)
			} else {
				h.rt.Discard(cmd.msg)
			}
		default:
			return
		}
	}
}

// Stopped reports whether the host's current incarnation has been killed.
func (h *Host) Stopped() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.inc.dead()
}

// Respawn restarts a killed host with its protocol state intact — the
// crash-recovery model: the node comes back with whatever (possibly
// stale) structures it had, re-runs Init after its configured offsets,
// and resumes ticking. It is a no-op if the host is already running and
// returns ErrClosed after Close. Respawn before Start just revives the
// host; Start will launch it.
func (h *Host) Respawn() error {
	r := h.rt
	for {
		if r.closed.Load() {
			return ErrClosed
		}
		h.mu.Lock()
		inc := h.inc
		running := inc.running
		h.mu.Unlock()
		if !inc.dead() {
			return nil
		}
		if running {
			// Wait for the previous incarnation outside the locks.
			<-inc.exited
		}
		// Discard messages that arrived while the host was down, as a
		// rebooting UDP host would. Best-effort: a message still in
		// flight from the down window can land after the drain and reach
		// the new incarnation — indistinguishable, to the protocol, from
		// one sent during the reboot itself.
		h.drainInbox()
		r.mu.Lock()
		if r.closing {
			r.mu.Unlock()
			return ErrClosed
		}
		h.mu.Lock()
		if h.inc != inc {
			// A concurrent Respawn won; re-evaluate from scratch.
			h.mu.Unlock()
			r.mu.Unlock()
			continue
		}
		fresh := newIncarnation()
		h.inc = fresh
		launch := r.started.Load()
		if launch {
			fresh.running = true
			r.wg.Add(1)
		}
		h.mu.Unlock()
		r.mu.Unlock()
		if launch {
			go h.run(fresh)
		}
		return nil
	}
}

// Pause freezes the host between callbacks: the host goroutine stops
// draining its inbox and ticks until Resume. It returns once the host is
// actually parked, so the caller may read the host's protocol state until
// the matching Resume (the handshake establishes the happens-before
// edges). Returns false if the host is dead or the runtime stopped.
func (h *Host) Pause() bool { return h.control(true) }

// Resume unfreezes a paused host. Returns false if the host is dead or
// the runtime stopped. Resuming a host that is not paused is a no-op
// handshake.
func (h *Host) Resume() bool { return h.control(false) }

func (h *Host) control(pause bool) bool {
	c := ctrlMsg{pause: pause, ack: make(chan struct{})}
	for {
		h.mu.Lock()
		inc := h.inc
		running := inc.running
		h.mu.Unlock()
		if !running || inc.dead() {
			return false
		}
		select {
		case h.ctrl <- c:
			// Some incarnation received the command (h.ctrl is shared
			// across incarnations) and closes ack immediately on
			// receipt, so this wait is short and unconditional —
			// selecting on a possibly stale inc.exited here could
			// report a successfully parked host as dead.
			<-c.ack
			return true
		case <-inc.exited:
			// This incarnation ended; re-evaluate — a concurrent
			// Respawn may have installed a live one.
		case <-h.rt.stop:
			return false
		}
	}
}

// run is the host main loop for one incarnation: Init all protocols
// (after their offsets), then serve ticks, deliveries and pause/resume
// handshakes until shutdown.
func (h *Host) run(inc *incarnation) {
	r := h.rt
	defer r.wg.Done()
	defer close(inc.exited)
	h.incarnations.Add(1)
	// Stagger protocol starts without blocking the mailbox: offsets are
	// armed as timers that enqueue an init-then-tick sequence.
	inits := make(chan *binding, len(h.bindings))
	var timers []*time.Timer
	var tickers []*time.Ticker
	for i := range h.bindings {
		b := &h.bindings[i]
		timers = append(timers, time.AfterFunc(b.offset, func() {
			select {
			case inits <- b:
			case <-r.stop:
			case <-inc.down:
			}
		}))
	}
	defer func() {
		for _, t := range timers {
			t.Stop()
		}
		for _, t := range tickers {
			t.Stop()
		}
	}()
	for {
		select {
		case <-r.stop:
			return
		case <-inc.down:
			return
		case c := <-h.ctrl:
			close(c.ack)
			if c.pause {
				if !h.parked(inc) {
					return
				}
			}
		case b := <-inits:
			if !r.noTicks.Load() {
				b.p.Init(hostContext{h: h, pid: b.pid})
			}
			if b.period > 0 {
				ticker := time.NewTicker(b.period)
				tickers = append(tickers, ticker)
				go h.forwardTicks(ticker, b, inc)
			}
		case cmd := <-h.inbox:
			h.dispatch(cmd)
		}
	}
}

// parked blocks until Resume, Kill, or runtime stop. It reports whether
// the incarnation should keep running.
func (h *Host) parked(inc *incarnation) bool {
	for {
		select {
		case c := <-h.ctrl:
			close(c.ack)
			if !c.pause {
				return true
			}
		case <-inc.down:
			return false
		case <-h.rt.stop:
			return false
		}
	}
}

func (h *Host) forwardTicks(t *time.Ticker, b *binding, inc *incarnation) {
	r := h.rt
	for {
		select {
		case <-r.stop:
			return
		case <-inc.down:
			return
		case <-t.C:
			if r.noTicks.Load() {
				continue // quiescing: stop feeding new gossip rounds
			}
			if !atomic.CompareAndSwapUint32(&b.tickQueued, 0, 1) {
				continue // a tick is already queued; coalesce
			}
			select {
			case h.inbox <- command{tick: b}:
			case <-r.stop:
				atomic.StoreUint32(&b.tickQueued, 0)
				return
			case <-inc.down:
				atomic.StoreUint32(&b.tickQueued, 0)
				return
			default:
				// Inbox full: skip the tick rather than stall.
				atomic.StoreUint32(&b.tickQueued, 0)
			}
		}
	}
}

func (h *Host) dispatch(cmd command) {
	if cmd.tick != nil {
		atomic.StoreUint32(&cmd.tick.tickQueued, 0)
		if h.rt.noTicks.Load() {
			return
		}
		h.ticks.Add(1)
		cmd.tick.p.Tick(hostContext{h: h, pid: cmd.tick.pid})
		return
	}
	b := h.find(cmd.pid)
	if b == nil {
		h.rt.Discard(cmd.msg)
		return
	}
	h.rt.delivered.Add(1)
	h.delivered.Add(1)
	b.p.Handle(hostContext{h: h, pid: cmd.pid}, cmd.from, cmd.msg)
	recycle(cmd.msg)
}
