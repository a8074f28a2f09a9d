package experiment

import (
	"math/rand"

	"repro/internal/truth"
)

// Drive is the convergence loop every trial harness shares: simnet's Run
// (and the RunChord baseline, whose points are ChordPoints), the host
// engines' RunLive and RunSocket, and cmd/netsim's multi-process driver.
// It calls step for cycles 0, 1, … and collects the points; step
// reports whether its point shows a perfect network. A cycle converges when
// it is perfect at or after lastEvent, the last cycle with a scheduled
// fault or join (-1 for none): events apply at the start of their cycle and
// measurement runs at its end, so a perfect point at the last event's own
// cycle already reflects the fully applied plan. The loop stops at the
// first converged cycle unless keepRunning is set, and at step's first
// error. It returns the points, the first converged cycle (or -1), and that
// error.
func Drive[P any](cycles, lastEvent int, keepRunning bool, step func(cycle int) (P, bool, error)) ([]P, int, error) {
	var points []P
	convergedAt := -1
	for cycle := 0; cycle < cycles; cycle++ {
		pt, perfect, err := step(cycle)
		if err != nil {
			return points, convergedAt, err
		}
		points = append(points, pt)
		if perfect && cycle >= lastEvent {
			if convergedAt < 0 {
				convergedAt = cycle
			}
			if !keepRunning {
				break
			}
		}
	}
	return points, convergedAt, nil
}

// measurement is a trial's measurement plane: the ground-truth oracle plus
// the measurement knobs Run and RunLive share.
type measurement struct {
	tr         *truth.Truth
	sample     int     // MeasureSample
	confidence float64 // MeasureConfidence
	workers    int     // MeasureWorkers
	// rng draws the measured samples. It is a stream of its own, so
	// enabling sampling never perturbs the protocol trace.
	rng *rand.Rand
}

// measurePoint measures the members ms (alive nodes network-wide) and
// reports the cycle's Point and whether it shows a perfect network.
//
// An all-perfect sample is only evidence, not proof: a small sample can
// miss every imperfect node. Once the run is settled (at or after its last
// event, where a perfect point may end it) such a sample is confirmed with
// one exact measurement. When the exact measurement disagrees it supersedes
// the sample as the reported point (SampleSize == 0 marks it exact): the
// full measurement is already paid for, and an optimistic estimate the run
// itself refuted would misreport the convergence tail. An unconfirmed
// sample never counts as perfect.
func (m *measurement) measurePoint(ms []truth.Member, cycle int, settled bool, alive int, sent, dropped, wireUnits int64) (Point, bool) {
	var pt Point
	if m.sample > 0 {
		sa := m.tr.MeasureSampleConf(ms, m.sample, m.confidence, m.rng, m.workers)
		pt = pointFromSampleAggregate(cycle, sa, alive, sent, dropped, wireUnits)
	} else {
		pt = PointFromAggregate(cycle, m.tr.MeasureAll(ms, m.workers), alive, sent, dropped, wireUnits)
	}
	perfect := pt.LeafMissing == 0 && pt.PrefixMissing == 0
	if perfect && pt.SampleSize > 0 {
		if !settled {
			return pt, false
		}
		agg := m.tr.MeasureAll(ms, m.workers)
		if agg.LeafMissing != 0 || agg.PrefixMissing != 0 {
			return PointFromAggregate(cycle, agg, alive, sent, dropped, wireUnits), false
		}
	}
	return pt, perfect
}
