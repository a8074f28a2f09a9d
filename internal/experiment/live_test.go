package experiment

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/livenet"
)

func quickLiveParams(n, cycles int) LiveParams {
	return LiveParams{
		N:      n,
		Config: core.DefaultConfig(),
		Period: 5 * time.Millisecond,
		Cycles: cycles,
	}
}

func TestLiveParamsValidate(t *testing.T) {
	good := quickLiveParams(16, 5)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*LiveParams)
	}{
		{"tiny N", func(p *LiveParams) { p.N = 1 }},
		{"zero cycles", func(p *LiveParams) { p.Cycles = 0 }},
		{"drop out of range", func(p *LiveParams) { p.Drop = 1 }},
		{"negative drop", func(p *LiveParams) { p.Drop = -0.1 }},
		{"negative period", func(p *LiveParams) { p.Period = -time.Second }},
		{"negative latency", func(p *LiveParams) { p.MaxLatency = -time.Millisecond }},
		{"bad config", func(p *LiveParams) { p.Config.C = 3 }},
	}
	for _, tc := range cases {
		p := good
		tc.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestLiveRunConvergesFailureFree(t *testing.T) {
	res, err := RunLive(quickLiveParams(32, 25), 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.ConvergedAt < 0 {
		t.Errorf("failure-free live run did not converge: final %+v", res.Final())
	}
	if len(res.Points) == 0 {
		t.Fatal("no measurement points")
	}
	if got := res.Final().Alive; got != 32 {
		t.Errorf("alive = %d, want 32", got)
	}
	if st := res.Stats; st.Sent != st.Delivered+st.Dropped+st.Overflow {
		t.Errorf("counters not conserved: %+v", st)
	}
}

// TestLiveNewscastSamplerConverges runs the full two-layer stack on the
// concurrent runtime: NEWSCAST gossips on every host, the bootstrap layer
// samples its decentralized view through the newscast.Sampler adapter —
// no oracle on the data plane at all. Sampled measurement rides along so
// the whole new measurement path runs under -race in the live CI job.
func TestLiveNewscastSamplerConverges(t *testing.T) {
	p := quickLiveParams(48, 40)
	p.Period = 20 * time.Millisecond
	p.Sampler = SamplerNewscast
	p.WarmupCycles = 5
	p.MeasureSample = 24
	res, err := RunLive(p, 9)
	if err != nil {
		t.Fatal(err)
	}
	if res.ConvergedAt < 0 {
		t.Errorf("two-layer live stack did not converge: final %+v", res.Final())
	}
	if st := res.Stats; st.Sent != st.Delivered+st.Dropped+st.Overflow {
		t.Errorf("counters not conserved: %+v", st)
	}
}

func TestLiveTrialsChurnCampaign(t *testing.T) {
	p := quickLiveParams(48, 16)
	p.Scenario = livenet.ScenarioChurn
	p.KeepRunningAfterPerfect = true
	p.MemStats = true
	res, err := RunLiveTrials(p, Seeds(11, 3), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 3 {
		t.Fatalf("got %d trials, want 3", len(res.Trials))
	}
	if res.Workers != 2 {
		t.Errorf("resolved Workers = %d, want 2", res.Workers)
	}
	if res.Mem == nil {
		t.Fatal("MemStats campaign tracker missing from LiveTrialsResult")
	}
	if res.Mem.Peak() < res.Mem.Baseline() {
		t.Errorf("campaign peak %d below baseline %d", res.Mem.Peak(), res.Mem.Baseline())
	}
	for i, tr := range res.Trials {
		if tr.HeapBytes == 0 {
			t.Errorf("trial %d: HeapBytes not sampled under MemStats", i)
		}
		if tr.HeapBytes > res.Mem.Peak() {
			t.Errorf("trial %d: heap sample %d above campaign peak %d", i, tr.HeapBytes, res.Mem.Peak())
		}
		if tr.Killed == 0 || tr.Respawned == 0 {
			t.Errorf("trial %d: churn scenario applied no lifecycle events (killed=%d respawned=%d)",
				i, tr.Killed, tr.Respawned)
		}
		if tr.Killed != tr.Respawned {
			t.Errorf("trial %d: killed=%d != respawned=%d; schedule must pair waves with respawns",
				i, tr.Killed, tr.Respawned)
		}
		if len(tr.Points) != p.Cycles {
			t.Errorf("trial %d: %d points, want %d (KeepRunningAfterPerfect)", i, len(tr.Points), p.Cycles)
		}
		if got := tr.Final().Alive; got != p.N {
			t.Errorf("trial %d: final alive = %d, want %d after last respawn", i, got, p.N)
		}
		if st := tr.Stats; st.Sent != st.Delivered+st.Dropped+st.Overflow {
			t.Errorf("trial %d: counters not conserved: %+v", i, st)
		}
		if len(tr.Schedule) == 0 {
			t.Errorf("trial %d: empty fault schedule under churn scenario", i)
		}
	}
	if len(res.Agg) != p.Cycles {
		t.Errorf("aggregate series has %d cycles, want %d", len(res.Agg), p.Cycles)
	}
	var sb strings.Builder
	if err := res.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != p.Cycles+1 {
		t.Errorf("CSV has %d lines, want %d (header + cycles)", len(lines), p.Cycles+1)
	}
	if !strings.HasPrefix(lines[0], "cycle,trials,") {
		t.Errorf("unexpected CSV header %q", lines[0])
	}
}

func TestLiveSchedulesDifferAcrossTrials(t *testing.T) {
	p := quickLiveParams(32, 12)
	p.Scenario = livenet.ScenarioChurn
	p.KeepRunningAfterPerfect = true
	res, err := RunLiveTrials(p, Seeds(5, 2), 1)
	if err != nil {
		t.Fatal(err)
	}
	a := livenet.TraceSchedule(res.Trials[0].Schedule)
	b := livenet.TraceSchedule(res.Trials[1].Schedule)
	if a == b {
		t.Error("two trial seeds produced the identical fault plan")
	}
}

func TestLivePartitionHealRecovers(t *testing.T) {
	p := quickLiveParams(32, 24)
	p.Scenario = livenet.ScenarioPartition
	p.KeepRunningAfterPerfect = true
	res, err := RunLive(p, 9)
	if err != nil {
		t.Fatal(err)
	}
	// During the cut the global structures cannot be perfect (the oracle
	// still samples both sides but messages across the boundary drop);
	// after healing they must recover. Assert recovery rather than the
	// exact degradation, which depends on scheduling.
	final := res.Final()
	if final.LeafMissing > 0.05 || final.PrefixMissing > 0.05 {
		t.Errorf("no recovery after heal: final leaf=%e prefix=%e", final.LeafMissing, final.PrefixMissing)
	}
	if st := res.Stats; st.Sent != st.Delivered+st.Dropped+st.Overflow {
		t.Errorf("counters not conserved: %+v", st)
	}
	if st := res.Stats; st.Dropped == 0 {
		t.Error("partition scenario dropped no messages")
	}
}

func TestLiveTrialsRejectsBadInput(t *testing.T) {
	if _, err := RunLiveTrials(quickLiveParams(16, 4), nil, 2); err == nil {
		t.Error("empty seed list accepted")
	}
	bad := quickLiveParams(1, 4)
	if _, err := RunLiveTrials(bad, Seeds(1, 2), 2); err == nil {
		t.Error("invalid params accepted")
	}
}

// TestLiveSameCycleRespawnThenKill pins that both host engines apply a
// cycle's events in schedule order: a respawn followed by a kill in the
// same cycle draws its victims from the revived population, so neither
// engine kills a node that is already dead, and both replay the identical
// plan.
func TestLiveSameCycleRespawnThenKill(t *testing.T) {
	sc := livenet.Scenario{Name: "respawn-then-kill", Schedule: func(int64, int, int) []livenet.Event {
		return []livenet.Event{
			{Cycle: 1, Op: livenet.OpKill, Frac: 0.25},
			{Cycle: 3, Op: livenet.OpRespawn},
			{Cycle: 3, Op: livenet.OpKill, Frac: 0.25},
			{Cycle: 5, Op: livenet.OpRespawn},
		}
	}}
	const n, cycles, seed = 32, 10, 4
	const period = 10 * time.Millisecond
	live, err := RunLive(LiveParams{
		N: n, Config: core.DefaultConfig(), Period: period, Cycles: cycles,
		Scenario: sc, KeepRunningAfterPerfect: true,
	}, seed)
	if err != nil {
		t.Fatalf("livenet: %v", err)
	}
	sock, err := RunSocket(SocketParams{
		N: n, Config: core.DefaultConfig(), Period: period, Cycles: cycles,
		BasePort: 19440, Scenario: sc, KeepRunningAfterPerfect: true,
	}, seed)
	if err != nil {
		t.Fatalf("socket: %v", err)
	}

	wantAlive := []int{32, 24, 24, 24, 24, 32, 32, 32, 32, 32}
	for _, r := range []struct {
		engine            string
		killed, respawned int
		points            []Point
	}{
		{"livenet", live.Killed, live.Respawned, live.Points},
		{"socket", sock.Killed, sock.Respawned, sock.Points},
	} {
		if r.killed != 16 || r.respawned != 16 {
			t.Errorf("%s: killed=%d respawned=%d, want 16/16", r.engine, r.killed, r.respawned)
		}
		if len(r.points) != cycles {
			t.Fatalf("%s: %d points, want %d", r.engine, len(r.points), cycles)
		}
		for c, pt := range r.points {
			if pt.Alive != wantAlive[c] {
				t.Errorf("%s cycle %d: alive = %d, want %d", r.engine, c, pt.Alive, wantAlive[c])
			}
		}
	}
	if st := live.Stats; st.Sent != st.Delivered+st.Dropped+st.Overflow {
		t.Errorf("livenet counters not conserved: %+v", st)
	}
	if st := sock.Stats; st.Sent != st.Delivered+st.Dropped+st.Overflow {
		t.Errorf("socket counters not conserved: %+v", st)
	}
}

// TestLiveFaultRampsRestoreBaseline runs the loss and latency ramps on
// livenet: each ends with a restore-to-baseline event (the -1 sentinel),
// after which the run must converge and, for loss, the configured baseline
// of zero must hold — no message is dropped in any later cycle.
func TestLiveFaultRampsRestoreBaseline(t *testing.T) {
	for _, sc := range []livenet.Scenario{livenet.ScenarioDrop, livenet.ScenarioLatency} {
		t.Run(sc.Name, func(t *testing.T) {
			p := quickLiveParams(32, 24)
			p.Period = 10 * time.Millisecond
			p.Drop = 0
			p.Scenario = sc
			p.KeepRunningAfterPerfect = true
			res, err := RunLive(p, 6)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Schedule) == 0 {
				t.Fatal("empty fault schedule")
			}
			last := res.Schedule[len(res.Schedule)-1]
			if last.Op != livenet.OpSetDrop && last.Op != livenet.OpSetLatency {
				t.Fatalf("last event %v is not a fault-model change", last)
			}
			if st := res.Stats; st.Sent != st.Delivered+st.Dropped+st.Overflow {
				t.Errorf("counters not conserved: %+v", st)
			}
			if res.ConvergedAt < last.Cycle {
				t.Errorf("converged_at = %d, want convergence at or after the last event (cycle %d); final %+v",
					res.ConvergedAt, last.Cycle, res.Final())
			}
			if len(res.Points) != p.Cycles {
				t.Fatalf("%d points, want %d (KeepRunningAfterPerfect)", len(res.Points), p.Cycles)
			}
			if sc.Name != livenet.ScenarioDrop.Name {
				return
			}
			if res.Points[last.Cycle].Dropped == 0 {
				t.Error("loss ramp dropped no messages")
			}
			for c := last.Cycle + 1; c < len(res.Points); c++ {
				if got, prev := res.Points[c].Dropped, res.Points[c-1].Dropped; got != prev {
					t.Errorf("cycle %d: cumulative dropped grew %d -> %d after the baseline was restored", c, prev, got)
				}
			}
		})
	}
}
