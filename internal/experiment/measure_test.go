package experiment

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/id"
	"repro/internal/memstats"
)

// TestMeasureWorkersInvariance: the per-cycle measurement is sharded
// across MeasureWorkers goroutines but aggregates integer counts, so the
// full result — every Point, bit for bit — must be identical for any
// worker count, and identical to the serial measurement.
func TestMeasureWorkersInvariance(t *testing.T) {
	base := Params{
		N:         192,
		Seed:      77,
		Config:    core.DefaultConfig(),
		Drop:      0.1,
		MaxCycles: 12,
		Churn:     Churn{Rate: 0.02, StartCycle: 1, StopCycle: 6},

		KeepRunningAfterPerfect: true,
	}
	var ref *Result
	for _, workers := range []int{1, 2, 3, 8} {
		p := base
		p.MeasureWorkers = workers
		res, err := Run(p)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if !reflect.DeepEqual(res.Points, ref.Points) {
			t.Errorf("workers=%d: Points diverge from workers=1", workers)
		}
		if res.ConvergedAt != ref.ConvergedAt || res.Stats != ref.Stats {
			t.Errorf("workers=%d: ConvergedAt/Stats diverge: %d/%+v vs %d/%+v",
				workers, res.ConvergedAt, res.Stats, ref.ConvergedAt, ref.Stats)
		}
	}
}

// TestChurnExplicitIDCollisionFree: explicit initial IDs chosen to be
// exactly the IDs the churn generator would draw next used to collide —
// the oracle then rejected the duplicate mid-run and the trial died.
// Reserving the explicit IDs in the generator makes churn allocation
// collision-free by construction.
func TestChurnExplicitIDCollisionFree(t *testing.T) {
	const n, seed = 16, int64(5)
	// The runner's generator is seeded with Seed+0x7f4a7c15 and consumes
	// n draws during setup; churn then draws n+1, n+2, ... Handing those
	// very draws in as the explicit membership forces the collision.
	all := id.Unique(2*n, seed+0x7f4a7c15)
	res, err := Run(Params{
		N:         n,
		Seed:      seed,
		IDs:       all[n : 2*n],
		Config:    core.DefaultConfig(),
		MaxCycles: 10,
		Churn:     Churn{Rate: 0.2, StartCycle: 0, StopCycle: 8},

		KeepRunningAfterPerfect: true,
	})
	if err != nil {
		t.Fatalf("churn with adversarial explicit IDs failed: %v", err)
	}
	if len(res.Points) != 10 {
		t.Errorf("run truncated: %d points, want 10", len(res.Points))
	}
	// Every measured cycle must still see the full population.
	for _, pt := range res.Points {
		if pt.Alive != n {
			t.Errorf("cycle %d: alive = %d, want %d", pt.Cycle, pt.Alive, n)
		}
	}
}

// TestGeneratorReserve pins the collision-free contract at the source.
func TestGeneratorReserve(t *testing.T) {
	first := id.NewGenerator(9).Next()
	g := id.NewGenerator(9)
	g.Reserve(first)
	for i := 0; i < 100; i++ {
		if g.Next() == first {
			t.Fatal("generator returned a reserved ID")
		}
	}
}

// TestRunMemStatsCountsLiveNetwork: Run's MemStats heap sample must see
// the trial's network. A sample taken after the runner's last use lets
// the collector free the whole network first, and bytes/node then reads
// ~25x low. The reference is the same trial's footprint measured with the
// runner held live.
func TestRunMemStatsCountsLiveNetwork(t *testing.T) {
	const n = 1024
	p := Params{N: n, Seed: 42, Config: core.DefaultConfig(), MaxCycles: 40, Sampler: SamplerOracle}
	base := memstats.HeapAlloc()
	r := &runner{p: p}
	if _, err := r.run(); err != nil {
		t.Fatal(err)
	}
	held := memstats.HeapAlloc() - base
	runtime.KeepAlive(r)

	p.MemStats = true
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	got := res.HeapBytes
	t.Logf("held footprint %d B/node, MemStats sample %d B/node", held/n, got/n)
	if got < held/2 || got > 2*held {
		t.Errorf("MemStats sample %d B/node, want within 2x of the held footprint %d B/node", got/n, held/n)
	}
}
