package experiment

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"sync"

	"repro/internal/memstats"
)

// AggPoint is one per-cycle aggregate of a convergence metric across
// independent trials: mean, min and max of the missing proportions, plus
// the fraction of trials already converged by that cycle.
type AggPoint struct {
	Cycle  int
	Trials int
	// LeafMean/Min/Max aggregate Point.LeafMissing across trials.
	LeafMean, LeafMin, LeafMax float64
	// PrefixMean/Min/Max aggregate Point.PrefixMissing across trials.
	PrefixMean, PrefixMin, PrefixMax float64
	// ConvergedFrac is the fraction of trials whose ConvergedAt is at or
	// before this cycle.
	ConvergedFrac float64
	// LeafCIMean/PrefixCIMean average the per-trial estimator interval
	// half-widths; zero under full measurement.
	LeafCIMean, PrefixCIMean float64
}

// TrialsResult is the outcome of a multi-trial campaign.
type TrialsResult struct {
	// Params is the shared configuration (its Seed field is ignored; each
	// trial runs with its own seed).
	Params Params
	// Seeds are the per-trial seeds, in input order.
	Seeds []int64
	// Trials holds one full Result per seed, index-aligned with Seeds.
	Trials []*Result
	// Agg is the per-cycle aggregate series. Trials that converged (and
	// stopped) before the longest trial ended are padded with their final
	// point, so a finished run keeps contributing its converged state.
	Agg []AggPoint
	// Workers is the resolved worker-pool size the trials actually ran on
	// (after the GOMAXPROCS default and the clamp to the trial count).
	Workers int
	// Mem is the campaign heap tracker — baseline before the first trial,
	// peak across every trial's end-of-run sample taken while that trial's
	// network was still live. Nil unless Params.MemStats was set.
	Mem *memstats.Campaign
}

// Seeds returns n deterministic trial seeds derived from base, suitable for
// RunTrials: base, base+7919, base+2*7919, … — the same stride cmd/bootsim
// uses for -runs repetitions, so a -trials campaign aggregates exactly the
// per-seed series a -runs campaign prints raw.
func Seeds(base int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = base + int64(i)*7919
	}
	return out
}

// RunTrials runs one independent trial of p per seed, fanning the trials
// across a pool of workers goroutines (workers < 1 means GOMAXPROCS), and
// aggregates the per-cycle convergence series across trials. Each trial is
// a self-contained deterministic simulation keyed only on its seed, so the
// result — including Trials order and every aggregate — is independent of
// workers and of goroutine scheduling.
func RunTrials(p Params, seeds []int64, workers int) (*TrialsResult, error) {
	if len(seeds) == 0 {
		return nil, errors.New("experiment: RunTrials needs at least one seed")
	}
	if p.Sampler == 0 {
		p.Sampler = SamplerOracle
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
		// A sharded trial already runs Params.Shards engine workers, so
		// the default splits the cores between the two levels instead of
		// oversubscribing trials*shards goroutines onto GOMAXPROCS.
		// An explicit workers count is always honored as given.
		if p.Shards > 1 {
			workers /= p.Shards
			if workers < 1 {
				workers = 1
			}
		}
	}
	if workers > len(seeds) {
		workers = len(seeds)
	}
	// One campaign tracker across the pool: each worker samples the heap
	// at the end of each of its trials (network still reachable), and the
	// tracker keeps the high-water mark — a per-trial end-of-run snapshot
	// is meaningless when concurrent trials share the heap.
	if p.MemStats {
		p.memCampaign = memstats.StartCampaign()
	}

	results := make([]*Result, len(seeds))
	errs := make([]error, len(seeds))
	runPool(len(seeds), workers, func(i int) {
		tp := p
		tp.Seed = seeds[i]
		results[i], errs[i] = Run(tp)
	})

	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("trial %d (seed %d): %w", i, seeds[i], err)
		}
	}
	return &TrialsResult{
		Params:  p,
		Seeds:   seeds,
		Trials:  results,
		Agg:     aggregate(results),
		Workers: workers,
		Mem:     p.memCampaign,
	}, nil
}

// runPool runs fn(i) for every i in [0, n) across a pool of workers
// goroutines and waits for all of them — the shared trial fan-out of
// RunTrials and RunLiveTrials.
func runPool(n, workers int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// aggregate folds the per-trial series into a per-cycle aggregate. Trials
// shorter than the longest one (early convergence) contribute their final
// point for the remaining cycles.
func aggregate(trials []*Result) []AggPoint {
	series := make([][]Point, len(trials))
	conv := make([]int, len(trials))
	for i, t := range trials {
		series[i] = t.Points
		conv[i] = t.ConvergedAt
	}
	return AggregateSeries(series, conv)
}

// AggregateSeries is the engine-agnostic aggregation core shared by the
// campaign runners (RunTrials, RunLiveTrials, cmd/netsim): one
// per-cycle Point series and ConvergedAt per trial in, mean/min/max
// aggregates out. Series shorter than the longest one contribute their
// final point for the remaining cycles.
func AggregateSeries(series [][]Point, convergedAt []int) []AggPoint {
	cycles := 0
	for _, pts := range series {
		if len(pts) > cycles {
			cycles = len(pts)
		}
	}
	agg := make([]AggPoint, 0, cycles)
	for c := 0; c < cycles; c++ {
		a := AggPoint{Cycle: c, Trials: len(series)}
		converged := 0
		for i, pts := range series {
			pt := pts[len(pts)-1]
			if c < len(pts) {
				pt = pts[c]
			}
			a.LeafMean += pt.LeafMissing
			a.PrefixMean += pt.PrefixMissing
			a.LeafCIMean += pt.LeafCI
			a.PrefixCIMean += pt.PrefixCI
			if i == 0 || pt.LeafMissing < a.LeafMin {
				a.LeafMin = pt.LeafMissing
			}
			if pt.LeafMissing > a.LeafMax {
				a.LeafMax = pt.LeafMissing
			}
			if i == 0 || pt.PrefixMissing < a.PrefixMin {
				a.PrefixMin = pt.PrefixMissing
			}
			if pt.PrefixMissing > a.PrefixMax {
				a.PrefixMax = pt.PrefixMissing
			}
			if convergedAt[i] >= 0 && c >= convergedAt[i] {
				converged++
			}
		}
		a.LeafMean /= float64(len(series))
		a.PrefixMean /= float64(len(series))
		a.LeafCIMean /= float64(len(series))
		a.PrefixCIMean /= float64(len(series))
		a.ConvergedFrac = float64(converged) / float64(len(series))
		agg = append(agg, a)
	}
	return agg
}

// ConvergedTrials counts trials that reached perfection.
func (tr *TrialsResult) ConvergedTrials() int {
	n := 0
	for _, t := range tr.Trials {
		if t.ConvergedAt >= 0 {
			n++
		}
	}
	return n
}

// WriteCSV emits the aggregate per-cycle series with a header. Campaigns
// run with sampled measurement grow ±ci columns.
func (tr *TrialsResult) WriteCSV(w io.Writer) error {
	return WriteAggCSV(w, tr.Agg, tr.Params.MeasureSample > 0)
}

// WriteAggCSV is the shared CSV emitter for aggregate series; sampled adds
// the estimator interval columns, keeping full-measurement output
// byte-identical to the historical format.
func WriteAggCSV(w io.Writer, agg []AggPoint, sampled bool) error {
	header := "cycle,trials,leaf_missing_mean,leaf_missing_min,leaf_missing_max,prefix_missing_mean,prefix_missing_min,prefix_missing_max,converged_frac"
	if sampled {
		header += ",leaf_ci_mean,prefix_ci_mean"
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	for _, a := range agg {
		row := strconv.Itoa(a.Cycle) + "," +
			strconv.Itoa(a.Trials) + "," +
			strconv.FormatFloat(a.LeafMean, 'e', 6, 64) + "," +
			strconv.FormatFloat(a.LeafMin, 'e', 6, 64) + "," +
			strconv.FormatFloat(a.LeafMax, 'e', 6, 64) + "," +
			strconv.FormatFloat(a.PrefixMean, 'e', 6, 64) + "," +
			strconv.FormatFloat(a.PrefixMin, 'e', 6, 64) + "," +
			strconv.FormatFloat(a.PrefixMax, 'e', 6, 64) + "," +
			strconv.FormatFloat(a.ConvergedFrac, 'f', 4, 64)
		if sampled {
			row += "," + strconv.FormatFloat(a.LeafCIMean, 'e', 6, 64) +
				"," + strconv.FormatFloat(a.PrefixCIMean, 'e', 6, 64)
		}
		if _, err := fmt.Fprintln(w, row); err != nil {
			return err
		}
	}
	return nil
}
