package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"
)

// runSimWorkload measures one simnet trial. A traced run first repeats
// the untraced trial, as the baseline for trace_overhead_frac and to check
// that the probes leave the protocol trace unchanged.
func runSimWorkload(o options, spec simSpec, res *result, checks *[]string) error {
	ref := spec
	ref.N = referenceN
	refRes, err := runSim(ref, nil)
	if err != nil {
		return err
	}
	if err := checkAgainstHarness(ref, refRes); err != nil {
		*checks = append(*checks, err.Error())
	}

	trial, setup, err := timedSetup(o, func() (*simTrial, error) { return newSimTrial(spec, nil) }, func(*simTrial) {})
	if err != nil {
		return err
	}
	r, err := trial.run()
	if err != nil {
		return err
	}
	checkSim(spec, r, checks)
	res.Attempted, res.Failed = r.stats.Sent, r.stats.Dropped
	if !o.trace {
		endToEnd{
			setup: seconds(setup), wall: r.wall,
			opsPerS:    float64(r.stats.Delivered) / r.wall.Seconds(),
			cpuUsPerOp: float64(r.cpu) / 1e3 / float64(max(r.stats.Delivered, 1)),
			heapBytes:  r.heapBytes, nodes: r.alive,
		}.fill(res, checks)
		return nil
	}

	runtime.GC()
	tr := newTracer()
	traced, err := newSimTrial(spec, tr)
	if err != nil {
		return err
	}
	rt, err := traced.run()
	if err != nil {
		return err
	}
	checkSim(spec, rt, checks)
	a, errA := spec.csv(r.points)
	b, errB := spec.csv(rt.points)
	if errA != nil || errB != nil || a != b || r.stats != rt.stats {
		*checks = append(*checks, "traced and untraced simnet traces differ")
	}
	p := newPerLayer()
	p.fillTrace(tr, traced.probes)
	p.set("simnet.events", float64(rt.events))
	p.set("simnet.sent", float64(rt.stats.Sent))
	p.set("simnet.wire_units", float64(rt.stats.WireUnits))
	p.set("peer.arena_outstanding", float64(traced.arena.Outstanding()))
	p.set("trace_overhead_frac", overhead(rt.wall, r.wall))
	p.into(res)
	return writeSpans(o, tr)
}

func checkSim(spec simSpec, r *simResult, checks *[]string) {
	last := r.points[len(r.points)-1]
	if spec.Churn.Rate == 0 && (r.converged < 0 || last.LeafMissing != 0 || last.PrefixMissing != 0) {
		*checks = append(*checks, fmt.Sprintf("bootstrap did not converge within %d cycles", len(r.points)))
	}
	if st := r.stats; st.Delivered+st.Dropped+st.DeadDest > st.Sent {
		*checks = append(*checks, fmt.Sprintf("simnet accounts for more messages than were sent: %+v", st))
	}
	if r.alive != spec.N {
		*checks = append(*checks, fmt.Sprintf("%d live nodes at the end, want %d", r.alive, spec.N))
	}
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func durQuantile(ds []time.Duration, q float64) time.Duration {
	ns := make([]int64, len(ds))
	for i, d := range ds {
		ns[i] = int64(d)
	}
	slices.Sort(ns)
	return time.Duration(quantile(ns, q))
}

// runGossip measures one host-runtime campaign. Its wall time is set by
// the gossip period, so the traced run's overhead is taken on CPU time.
func runGossip(o options, spec gossipSpec, res *result, checks *[]string) error {
	trial, setup, err := timedSetup(o,
		func() (*gossipTrial, error) { return newGossipTrial(spec, nil) },
		func(t *gossipTrial) { t.eng.close() })
	if err != nil {
		return err
	}
	r, err := trial.run()
	if r == nil {
		return err
	}
	if err != nil {
		*checks = append(*checks, err.Error())
	}
	checkGossip(r, checks)
	res.Attempted, res.Failed = r.traffic.Sent, r.traffic.Overflow
	if !o.trace {
		e := fromWindows(r.windows)
		e.setup, e.wall, e.heapBytes, e.nodes = seconds(setup), r.wall, r.heapBytes, r.alive
		e.fill(res, checks)
		return nil
	}

	runtime.GC()
	tr := newTracer()
	traced, err := newGossipTrial(spec, tr)
	if err != nil {
		return err
	}
	rt, err := traced.run()
	if rt == nil {
		return err
	}
	if err != nil {
		*checks = append(*checks, err.Error())
	}
	checkGossip(rt, checks)
	if len(rt.rtts) == 0 {
		*checks = append(*checks, "no exchange round trip completed")
	}
	p := newPerLayer()
	p.fillTrace(tr, traced.probes)
	p.set("peer.arena_outstanding", float64(traced.arena.Outstanding()))
	p.set("host.transit_p50_us", float64(quantile(rt.transits, 0.5))/1e3)
	p.set("host.transit_p99_us", float64(quantile(rt.transits, 0.99))/1e3)
	p.set("host.rtt_p50_ms", float64(quantile(rt.rtts, 0.5))/1e6)
	p.set("host.rtt_p90_ms", float64(quantile(rt.rtts, 0.9))/1e6)
	p.set("host.rtt_p99_ms", float64(quantile(rt.rtts, 0.99))/1e6)
	p.set("host.rtt_samples", float64(len(rt.rtts)))
	p.set("host.pause_p50_ms", float64(durQuantile(rt.pauses, 0.5))/1e6)
	p.set("host.sent", float64(rt.traffic.Sent))
	p.set("host.delivered", float64(rt.traffic.Delivered))
	p.set("host.dropped", float64(rt.traffic.Dropped))
	p.set("host.overflow", float64(rt.traffic.Overflow))
	p.set("host.loss_frac", float64(rt.traffic.Dropped+rt.traffic.Overflow)/float64(max(rt.traffic.Sent, 1)))
	p.set("trace_overhead_frac", overhead(rt.cpu, r.cpu))
	p.into(res)
	return writeSpans(o, tr)
}

func checkGossip(r *gossipResult, checks *[]string) {
	if f := r.final; f.Sent != f.Delivered+f.Dropped+f.Overflow {
		*checks = append(*checks, fmt.Sprintf("messages not conserved at quiescence: %+v", f))
	}
	if r.missingAfterTail != 0 {
		*checks = append(*checks, fmt.Sprintf("missing fraction %.3g after the fault-free tail, want 0", r.missingAfterTail))
	}
}

// runServe measures the DHT workload; a traced run repeats it untraced
// first as the overhead baseline.
func runServe(o options, spec serveSpec, res *result, checks *[]string) error {
	trial, setup, err := timedSetup(o, func() (*serveTrial, error) { return newServeTrial(spec, nil) }, func(*serveTrial) {})
	if err != nil {
		return err
	}
	r := trial.run()
	checkServe(r, checks)
	res.Attempted, res.Failed = r.ops, r.notFound+r.noRoute
	if !o.trace {
		e := fromWindows(r.windows)
		e.setup, e.wall, e.heapBytes, e.nodes = seconds(setup), r.wall, r.heapBytes, r.alive
		e.fill(res, checks)
		return nil
	}

	runtime.GC()
	tr := newTracer()
	traced, err := newServeTrial(spec, tr)
	if err != nil {
		return err
	}
	rt := traced.run()
	checkServe(rt, checks)
	p := newPerLayer()
	p.fillTrace(tr, nil)
	p.set("dht.get.calls", float64(rt.gets))
	p.set("dht.get.busy_s", rt.getBusy.Seconds())
	p.set("dht.put.calls", float64(rt.puts))
	p.set("dht.put.busy_s", rt.putBusy.Seconds())
	p.set("dht.op_p50_us", float64(rt.lat.quantile(0.5))/1e3)
	p.set("dht.op_p90_us", float64(rt.lat.quantile(0.9))/1e3)
	p.set("dht.op_p99_us", float64(rt.lat.quantile(0.99))/1e3)
	p.set("dht.hops_mean", hopMean(rt.hops))
	p.set("dht.hops_p99", float64(hopQuantile(rt.hops, 0.99)))
	p.set("dht.degraded_frac", float64(rt.degraded)/float64(max(rt.puts, 1)))
	p.set("dht.fail_frac", float64(rt.notFound+rt.noRoute)/float64(max(rt.ops, 1)))
	p.set("trace_overhead_frac", overhead(rt.wall, r.wall))
	p.into(res)
	return writeSpans(o, tr)
}

func checkServe(r *serveResult, checks *[]string) {
	if ok := 1 - float64(r.notFound+r.noRoute)/float64(max(r.ops, 1)); ok < 0.99 {
		*checks = append(*checks, fmt.Sprintf("success rate %.4f, want >= 0.99", ok))
	}
	if r.unreadable > 0 {
		*checks = append(*checks, fmt.Sprintf("%d preloaded keys unreadable at the end", r.unreadable))
	}
}
