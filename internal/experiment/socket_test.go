package experiment

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/livenet"
	"repro/internal/transport"
	"repro/internal/truth"
)

// TestSocketScheduleExpansion pins the properties the multi-process
// driver depends on: the expansion is deterministic (two processes
// expanding independently agree on every victim), kills and respawns
// track a consistent alive set, and the socket engine rejects latency
// scenarios.
func TestSocketScheduleExpansion(t *testing.T) {
	const n, cycles = 50, 30
	schedule := livenet.ScenarioChurn.Events(7, n, cycles)
	a, err := expandSchedule(schedule, 7, n)
	if err != nil {
		t.Fatal(err)
	}
	b, err := expandSchedule(schedule, 7, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("plan sizes differ or empty: %d vs %d", len(a), len(b))
	}
	kills := 0
	for c, pa := range a {
		pb := b[c]
		if pb == nil {
			t.Fatalf("cycle %d present in one expansion only", c)
		}
		if len(pa.kills) != len(pb.kills) {
			t.Fatalf("cycle %d: kill counts differ", c)
		}
		for i := range pa.kills {
			if pa.kills[i] != pb.kills[i] {
				t.Fatalf("cycle %d: victim %d differs: %d vs %d", c, i, pa.kills[i], pb.kills[i])
			}
		}
		kills += len(pa.kills)
	}
	if kills == 0 {
		t.Fatal("churn scenario expanded to zero kills")
	}

	lat, err := NewSocketTrial(SocketParams{
		N:        n,
		Config:   core.DefaultConfig(),
		Cycles:   cycles,
		BasePort: 19420,
		Scenario: livenet.ScenarioLatency,
	}, 1)
	if err == nil {
		lat.Close()
		t.Fatal("latency scenario accepted by NewSocketTrial")
	}
}

// TestSocketShardedPartialSums runs a two-shard campaign inside one test
// process, stepping the shards in lockstep the way cmd/netsim does across
// real processes, and checks the driver-side invariants: per-cycle global
// alive counts agree between shards, the summed partial aggregates form a
// complete measurement (totals cover every live node), and the summed
// traffic counters are conserved at quiescence.
func TestSocketShardedPartialSums(t *testing.T) {
	const n, cycles = 24, 6
	p := SocketParams{
		N:        n,
		Config:   core.DefaultConfig(),
		Period:   15 * time.Millisecond,
		Cycles:   cycles,
		Procs:    2,
		BasePort: 19400,
		Scenario: livenet.ScenarioChurn,
	}
	var trials []*SocketTrial
	for proc := 0; proc < 2; proc++ {
		pc := p
		pc.Proc = proc
		tr, err := NewSocketTrial(pc, 3)
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		trials = append(trials, tr)
	}
	for _, tr := range trials {
		if err := tr.Start(); err != nil {
			t.Fatal(err)
		}
	}
	for cycle := 0; cycle < cycles; cycle++ {
		var sum truth.Aggregate
		local := 0
		global := -1
		for _, tr := range trials {
			agg, la, ga, err := tr.StepCycle(cycle)
			if err != nil {
				t.Fatal(err)
			}
			sum.Add(agg)
			local += la
			if global >= 0 && ga != global {
				t.Fatalf("cycle %d: shards disagree on global alive: %d vs %d", cycle, global, ga)
			}
			global = ga
		}
		if local != global {
			t.Fatalf("cycle %d: local alive counts sum to %d, global says %d", cycle, local, global)
		}
		if sum.LeafTotal == 0 {
			t.Fatalf("cycle %d: summed measurement is empty", cycle)
		}
		pt := PointFromAggregate(cycle, sum, global, 0, 0, 0)
		if pt.LeafMissing < 0 || pt.LeafMissing > 1 {
			t.Fatalf("cycle %d: implausible missing fraction %v", cycle, pt.LeafMissing)
		}
	}
	for _, tr := range trials {
		tr.Net().StopTicks()
	}
	// Global quiescence: poll the summed counters, mirroring the netsim
	// driver's DRAIN barrier.
	deadline := time.Now().Add(10 * time.Second)
	var prev transport.Stats
	stable := 0
	for time.Now().Before(deadline) && stable < 5 {
		time.Sleep(20 * time.Millisecond)
		var cur transport.Stats
		for _, tr := range trials {
			cur.Add(tr.Stats())
		}
		if cur == prev {
			stable++
		} else {
			stable = 0
		}
		prev = cur
	}
	if stable < 5 {
		t.Fatalf("sharded campaign did not quiesce: %+v", prev)
	}
	if prev.Sent != prev.Delivered+prev.Dropped+prev.Overflow {
		t.Fatalf("summed counters not conserved: %+v", prev)
	}
	if prev.Delivered == 0 {
		t.Fatal("no cross-shard deliveries")
	}
}

// TestLiveCrossEngineSocketEquivalence runs the identical protocol
// configuration under the livenet engine (goroutines, pointer handoff)
// and the socket engine (real loopback TCP through the wire codec) and
// asserts the convergence outcomes agree within the same tolerance the
// simnet/livenet comparison uses. Message interleaving differs — the
// kernel schedules the socket engine's deliveries — so this is the
// statistical-equivalence claim, the strongest reproducibility available
// once real sockets are involved.
func TestLiveCrossEngineSocketEquivalence(t *testing.T) {
	const n = 64
	const cycles = 40
	cfg := core.DefaultConfig()

	live, err := RunLive(LiveParams{
		N:              n,
		Config:         cfg,
		Period:         20 * time.Millisecond,
		Cycles:         cycles,
		MeasureWorkers: 4,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sock, err := RunSocket(SocketParams{
		N:              n,
		Config:         cfg,
		Period:         20 * time.Millisecond,
		Cycles:         cycles,
		BasePort:       19410,
		MeasureWorkers: 4,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}

	liveF, sockF := live.Final(), sock.Final()
	t.Logf("livenet: converged_at=%d final=(%.4f, %.4f); socket: converged_at=%d final=(%.4f, %.4f) stats=%+v",
		live.ConvergedAt, liveF.LeafMissing, liveF.PrefixMissing,
		sock.ConvergedAt, sockF.LeafMissing, sockF.PrefixMissing, sock.Stats)

	if live.ConvergedAt < 0 {
		t.Errorf("livenet run did not converge in %d cycles", cycles)
	}
	if sock.ConvergedAt < 0 {
		t.Errorf("socket run did not converge in %d cycles", cycles)
	}
	const tol = 0.02
	if liveF.LeafMissing > tol || sockF.LeafMissing > tol {
		t.Errorf("final leaf missing disagrees with convergence: live=%e sock=%e (tol %v)",
			liveF.LeafMissing, sockF.LeafMissing, tol)
	}
	if liveF.PrefixMissing > tol || sockF.PrefixMissing > tol {
		t.Errorf("final prefix missing disagrees with convergence: live=%e sock=%e (tol %v)",
			liveF.PrefixMissing, sockF.PrefixMissing, tol)
	}
	if d := math.Abs(liveF.LeafMissing - sockF.LeafMissing); d > tol {
		t.Errorf("cross-engine leaf missing gap %e exceeds tolerance %v", d, tol)
	}
	if d := math.Abs(liveF.PrefixMissing - sockF.PrefixMissing); d > tol {
		t.Errorf("cross-engine prefix missing gap %e exceeds tolerance %v", d, tol)
	}
	if live.ConvergedAt >= 0 && sock.ConvergedAt >= 0 {
		if diff := sock.ConvergedAt - live.ConvergedAt; diff > 15 || diff < -15 {
			t.Errorf("cross-engine convergence cycles diverge: live=%d sock=%d", live.ConvergedAt, sock.ConvergedAt)
		}
	}
	// The socket engine drains to quiescence before its final snapshot,
	// so its counters obey the same conservation law as livenet's.
	if sock.Stats.Sent != sock.Stats.Delivered+sock.Stats.Dropped+sock.Stats.Overflow {
		t.Errorf("socket counters not conserved at quiescence: %+v", sock.Stats)
	}
	if sock.Stats.Sent == 0 {
		t.Error("socket engine recorded no traffic")
	}
}
