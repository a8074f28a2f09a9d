package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/id"
	"repro/internal/overlay/pastry"
	"repro/internal/peer"
)

// serveSpec is the DHT workload: perfect routing tables, a preloaded key
// set, and closed-loop workers issuing a get/put mix straight into the
// cluster, with a removal wave between cycles.
type serveSpec struct {
	N           int
	Seed        int64
	Keys        int
	Workers     int
	Cycles      int
	OpsPerCycle int
	GetRatio    float64
	RemoveFrac  float64
	ValueSize   int
}

type serveTrial struct {
	spec    serveSpec
	top     *lane
	descs   []peer.Descriptor
	alive   []bool
	cluster *dht.Cluster
	keys    []id.ID
	value   []byte
	rng     *rand.Rand
}

// latHist records exact per-operation latencies: one counter per
// nanosecond below its range, the raw value above it.
type latHist struct {
	counts []uint32
	over   []int64
}

const latHistRange = 1 << 16

func newLatHist() *latHist { return &latHist{counts: make([]uint32, latHistRange)} }

func (h *latHist) observe(ns int64) {
	if ns < latHistRange {
		h.counts[ns]++
		return
	}
	h.over = append(h.over, ns)
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.over = append(h.over, o.over...)
}

func (h *latHist) total() int64 {
	n := int64(len(h.over))
	for _, c := range h.counts {
		n += int64(c)
	}
	return n
}

// quantile is the exact nearest-rank q-quantile in nanoseconds.
func (h *latHist) quantile(q float64) int64 {
	rank := int64(q*float64(h.total())+0.999999999) - 1
	rank = max(rank, 0)
	for ns, c := range h.counts {
		if rank < int64(c) {
			return int64(ns)
		}
		rank -= int64(c)
	}
	slices.Sort(h.over)
	return h.over[min(int(rank), len(h.over)-1)]
}

// serveWorker is one closed loop: it issues its next op when the last one
// returns. Everything it writes is its own until the cycle's WaitGroup.
type serveWorker struct {
	rng               *rand.Rand
	lat               *latHist
	hops              []int64
	gets, puts        int64
	getBusy, putBusy  time.Duration
	notFound, noRoute int64
	degraded          int64
	scratch           []byte
	origins           []peer.Addr
}

type serveResult struct {
	windows           []window
	wall              time.Duration
	ops               int64
	lat               *latHist
	hops              []int64
	gets, puts        int64
	getBusy, putBusy  time.Duration
	notFound, noRoute int64
	degraded          int64
	heapBytes         uint64
	alive             int
	unreadable        int
}

// newServeTrial builds the cluster on perfect tables and preloads every
// key, the way loadsim's perfect boot does.
func newServeTrial(spec serveSpec, tr *tracer) (*serveTrial, error) {
	t := &serveTrial{spec: spec, top: tr.top()}
	setup := t.top.begin(spSetup, 0)
	defer t.top.end(setup)
	cfg := core.DefaultConfig()
	ids := id.Unique(spec.N, spec.Seed)
	t.descs = make([]peer.Descriptor, spec.N)
	for i, v := range ids {
		t.descs[i] = peer.Descriptor{ID: v, Addr: peer.Addr(i)}
	}
	nodes := make([]*dht.Node, spec.N)
	for i, d := range t.descs {
		ls := core.NewLeafSet(d.ID, cfg.C)
		ls.Update(t.descs)
		pt := core.NewPrefixTable(d.ID, cfg.B, cfg.K)
		pt.AddAll(t.descs)
		nodes[i] = dht.NewNode(pastry.New(d, ls, pt, cfg.B))
	}
	t.cluster = dht.NewCluster(nodes, 0)
	t.alive = make([]bool, spec.N)
	for i := range t.alive {
		t.alive[i] = true
	}
	rng := rand.New(rand.NewSource(spec.Seed + 3))
	seen := make(map[id.ID]bool, spec.Keys)
	for len(t.keys) < spec.Keys {
		if k := id.ID(rng.Uint64()); !seen[k] {
			seen[k] = true
			t.keys = append(t.keys, k)
		}
	}
	t.value = make([]byte, spec.ValueSize)
	for i := range t.value {
		t.value[i] = byte(spec.Seed) + byte(i)
	}
	var st dht.OpStats
	for i, k := range t.keys {
		if err := t.cluster.PutStats(t.descs[i%spec.N].Addr, k, t.value, &st); err != nil {
			return nil, fmt.Errorf("preload key %d: %w", i, err)
		}
	}
	t.rng = rand.New(rand.NewSource(spec.Seed + 4))
	return t, nil
}

// removeWave crashes RemoveFrac of the initial population.
func (t *serveTrial) removeWave() {
	var up []int
	for i, a := range t.alive {
		if a {
			up = append(up, i)
		}
	}
	// Never remove the last live node: ops need an origin.
	k := min(max(1, int(t.spec.RemoveFrac*float64(t.spec.N))), len(up)-1)
	perm := t.rng.Perm(len(up))
	for j := 0; j < k; j++ {
		v := up[perm[j]]
		t.alive[v] = false
		sp := t.top.begin(spRemove, -1)
		t.cluster.Remove(t.descs[v].Addr)
		t.top.end(sp)
	}
}

func (t *serveTrial) run() *serveResult {
	spec := t.spec
	res := &serveResult{lat: newLatHist()}
	workers := make([]*serveWorker, spec.Workers)
	for i := range workers {
		workers[i] = &serveWorker{
			rng:     rand.New(rand.NewSource(spec.Seed + 7919*int64(i+1))),
			lat:     newLatHist(),
			hops:    make([]int64, 130),
			scratch: make([]byte, 0, spec.ValueSize+16),
		}
	}
	wall0 := time.Now()
	for c := 0; c < spec.Cycles; c++ {
		cs := t.top.begin(spCycle, int64(c))
		t.removeWave()
		origins := t.cluster.LiveAddrs(nil)
		for _, w := range workers {
			w.origins = origins
		}
		for b := 0; b < serveWindows; b++ {
			res.windows = append(res.windows, t.batch(workers, spec.OpsPerCycle/serveWindows))
		}
		t.top.end(cs)
	}
	res.wall = time.Since(wall0)
	for _, w := range workers {
		res.lat.merge(w.lat)
		if res.hops == nil {
			res.hops = make([]int64, len(w.hops))
		}
		for h, c := range w.hops {
			res.hops[h] += c
		}
		res.gets += w.gets
		res.puts += w.puts
		res.getBusy += w.getBusy
		res.putBusy += w.putBusy
		res.notFound += w.notFound
		res.noRoute += w.noRoute
		res.degraded += w.degraded
	}
	res.ops = res.gets + res.puts
	res.alive = t.cluster.Len()
	res.heapBytes = liveHeap()
	runtime.KeepAlive(t)

	// Every preloaded key must still be readable from a live node.
	origins := t.cluster.LiveAddrs(nil)
	var st dht.OpStats
	for i, k := range t.keys {
		if _, err := t.cluster.GetStats(nil, origins[i%len(origins)], k, &st); err != nil {
			res.unreadable++
		}
	}
	return res
}

// serveWindows is the number of op batches per cycle; each is one window
// of the end-to-end medians.
const serveWindows = 10

// batch runs ops operations split across the workers and returns the
// window they form.
func (t *serveTrial) batch(workers []*serveWorker, ops int) window {
	c0, t0 := cpuTime(), time.Now()
	sp := t.top.begin(spOps, -1)
	var wg sync.WaitGroup
	for i, w := range workers {
		n := ops / len(workers)
		if i < ops%len(workers) {
			n++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			t.drive(w, n)
		}()
	}
	wg.Wait()
	t.top.end(sp)
	return window{wall: time.Since(t0), cpu: cpuTime() - c0, ops: int64(ops)}
}

// drive issues n ops, timing each with two clock reads.
func (t *serveTrial) drive(w *serveWorker, n int) {
	var st dht.OpStats
	for i := 0; i < n; i++ {
		key := t.keys[w.rng.Intn(len(t.keys))]
		from := w.origins[w.rng.Intn(len(w.origins))]
		isGet := w.rng.Float64() < t.spec.GetRatio
		var err error
		t0 := time.Now()
		if isGet {
			var out []byte
			out, err = t.cluster.GetStats(w.scratch[:0], from, key, &st)
			d := time.Since(t0)
			w.getBusy += d
			w.lat.observe(int64(d))
			if err == nil {
				w.scratch = out[:0]
			}
			w.gets++
		} else {
			st.Stored, st.Want = 0, 0
			err = t.cluster.PutStats(from, key, t.value, &st)
			d := time.Since(t0)
			w.putBusy += d
			w.lat.observe(int64(d))
			if err == nil && st.Stored < st.Want {
				w.degraded++
			}
			w.puts++
		}
		switch {
		case err == nil:
			w.hops[min(st.Hops, len(w.hops)-1)]++
		case errors.Is(err, dht.ErrNotFound):
			w.notFound++
			w.hops[min(st.Hops, len(w.hops)-1)]++
		default:
			w.noRoute++
		}
	}
}

// hopQuantile and hopMean read the merged hop-count histogram.
func hopQuantile(hops []int64, q float64) int {
	var total int64
	for _, c := range hops {
		total += c
	}
	rank := max(int64(q*float64(total)+0.999999999)-1, 0)
	for h, c := range hops {
		if rank < c {
			return h
		}
		rank -= c
	}
	return len(hops) - 1
}

func hopMean(hops []int64) float64 {
	var total, sum int64
	for h, c := range hops {
		total += c
		sum += int64(h) * c
	}
	if total == 0 {
		return 0
	}
	return float64(sum) / float64(total)
}
