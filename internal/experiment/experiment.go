// Package experiment is the measurement harness reproducing the paper's
// evaluation (Section 5). It wires N simulated nodes — sampling layer plus
// bootstrap layer — into a deterministic simnet, runs the bootstrap
// protocol, and samples per-cycle convergence: the proportion of missing
// leaf-set entries and missing prefix-table entries across the whole
// network, the exact metrics of Figures 3 and 4.
package experiment

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strconv"

	"repro/internal/core"
	"repro/internal/flat"
	"repro/internal/id"
	"repro/internal/memstats"
	"repro/internal/newscast"
	"repro/internal/peer"
	"repro/internal/sampling"
	"repro/internal/simnet"
	"repro/internal/truth"
)

// SamplerKind selects the peer sampling implementation under the bootstrap
// layer.
type SamplerKind int

const (
	// SamplerOracle uses global-knowledge uniform sampling — the
	// paper's operating assumption ("the sampling service is already
	// functional").
	SamplerOracle SamplerKind = iota + 1
	// SamplerNewscast runs a live NEWSCAST layer under the bootstrap
	// layer, as in a real deployment of the architecture.
	SamplerNewscast
)

// String implements fmt.Stringer.
func (s SamplerKind) String() string {
	switch s {
	case SamplerOracle:
		return "oracle"
	case SamplerNewscast:
		return "newscast"
	default:
		return "unknown"
	}
}

// ParseSampler converts a CLI flag value into a SamplerKind.
func ParseSampler(s string) (SamplerKind, error) {
	switch s {
	case "oracle":
		return SamplerOracle, nil
	case "newscast":
		return SamplerNewscast, nil
	default:
		return 0, fmt.Errorf("unknown sampler %q (want oracle or newscast)", s)
	}
}

// Churn describes a node-replacement workload: each cycle in
// [StartCycle, StopCycle) a fraction Rate of the network is killed and
// replaced by fresh nodes with new IDs, keeping N constant.
type Churn struct {
	Rate       float64
	StartCycle int
	StopCycle  int
}

// Active reports whether churn applies at the given cycle.
func (c Churn) Active(cycle int) bool {
	return c.Rate > 0 && cycle >= c.StartCycle && cycle < c.StopCycle
}

// Params configures one experiment run.
type Params struct {
	// N is the network size.
	N int
	// Seed drives every random choice in the run.
	Seed int64
	// Config holds the bootstrap protocol parameters.
	Config core.Config
	// Drop is the uniform message-drop probability (0.2 in Figure 4).
	Drop float64
	// MaxCycles bounds the run; the run ends earlier on perfection.
	MaxCycles int
	// Sampler selects the sampling layer; zero value means oracle.
	Sampler SamplerKind
	// WarmupCycles runs the NEWSCAST layer alone before the bootstrap
	// layer starts (ignored for the oracle sampler).
	WarmupCycles int
	// Churn optionally replaces nodes during the run.
	Churn Churn
	// Join optionally injects a massive simultaneous join: Count fresh
	// nodes start the protocol at the beginning of cycle Cycle. This is
	// the paper's motivating "massive joins" scenario.
	Join Join
	// IDs optionally fixes the initial membership identifiers (length
	// must equal N). Used to study non-uniform ID distributions; the
	// default is N uniform random IDs.
	IDs []id.ID
	// MeasureWorkers is the number of goroutines the per-cycle
	// ground-truth measurement is sharded across (0 = GOMAXPROCS). The
	// measurement aggregates integer counts, so every value produces
	// bit-identical results; the protocol trace is untouched either way.
	MeasureWorkers int
	// MeasureSample, when positive and smaller than the live population,
	// measures a uniform random node sample of that size per cycle
	// instead of the full network, reporting ratio estimates with
	// confidence intervals (truth.MeasureSample) — the paper itself
	// plots means over node samples, and at paper scale full measurement
	// costs seconds per cycle. Zero (the default) measures every node.
	// Sampling touches only the measurement plane — the protocol trace
	// is bit-identical either way. A cycle whose sample shows zero
	// missing entries does not count as converged on the sample's word
	// alone: the runner re-checks with one exact MeasureAll over the full
	// population and only declares convergence when that confirms, so an
	// optimistic sample costs one full measurement instead of ending the
	// run early. When the confirmation refutes the sample, the exact
	// measurement replaces it as that cycle's reported Point (recognisable
	// by SampleSize == 0); confirmed cycles keep the sampled estimate.
	MeasureSample int
	// MeasureConfidence is the two-sided confidence level of the sampled
	// estimator's intervals; 0 selects 0.95. Ignored for full
	// measurement.
	MeasureConfidence float64
	// Shards is the simulation engine's parallel shard count
	// (simnet.Config.Shards): 0 or 1 runs the sequential engine, higher
	// values partition the nodes across that many workers with
	// conservative lookahead windows. Runs with any fixed Shards > 1 are
	// deterministic, and every Shards > 1 value produces the same trace as
	// every other — but that trace differs from the Shards <= 1 one: with
	// parallel dispatch each node draws from its own oracle Stream (keyed
	// by spawn order, as livenet does) instead of the single shared oracle
	// stream, whose draw order is inherently dispatch-order dependent.
	Shards int
	// KeepRunningAfterPerfect continues until MaxCycles even after
	// perfection, for steady-state studies.
	KeepRunningAfterPerfect bool
	// MemStats records the live heap (after a forced GC) into
	// Result.HeapBytes at the end of the run, while the network is still
	// reachable — the CLI's -memstats accounting. It runs once, after the
	// last cycle, so the protocol trace is untouched.
	MemStats bool

	// memCampaign, when non-nil, redirects the MemStats capture through a
	// shared campaign tracker: the end-of-trial heap sample also feeds the
	// campaign's peak high-water mark. Set only by RunTrials, which owns
	// the campaign across its worker pool.
	memCampaign *memstats.Campaign
}

// Join describes a massive simultaneous join event.
type Join struct {
	Cycle int
	Count int
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.N < 2 {
		return errors.New("experiment: N must be at least 2")
	}
	if p.MaxCycles < 1 {
		return errors.New("experiment: MaxCycles must be positive")
	}
	if p.Drop < 0 || p.Drop >= 1 {
		return fmt.Errorf("experiment: Drop = %v out of [0, 1)", p.Drop)
	}
	if p.Churn.Rate < 0 || p.Churn.Rate > 1 {
		return fmt.Errorf("experiment: churn rate = %v out of [0, 1]", p.Churn.Rate)
	}
	if p.Join.Count < 0 || p.Join.Cycle < 0 {
		return fmt.Errorf("experiment: join = %+v must not be negative", p.Join)
	}
	if len(p.IDs) != 0 && len(p.IDs) != p.N {
		return fmt.Errorf("experiment: %d explicit IDs for N = %d", len(p.IDs), p.N)
	}
	if p.MeasureWorkers < 0 {
		return fmt.Errorf("experiment: MeasureWorkers = %d must not be negative", p.MeasureWorkers)
	}
	if p.MeasureSample < 0 {
		return fmt.Errorf("experiment: MeasureSample = %d must not be negative", p.MeasureSample)
	}
	if p.MeasureConfidence < 0 || p.MeasureConfidence >= 1 {
		return fmt.Errorf("experiment: MeasureConfidence = %v out of [0, 1)", p.MeasureConfidence)
	}
	if p.Shards < 0 {
		return fmt.Errorf("experiment: Shards = %d must not be negative", p.Shards)
	}
	return p.Config.Validate()
}

// Point is one per-cycle measurement across the whole network.
type Point struct {
	// Cycle is the cycle index, starting at 0 (the paper's convention:
	// the first Δ-interval after the staggered start).
	Cycle int
	// LeafMissing is the proportion of missing leaf-set entries.
	LeafMissing float64
	// PrefixMissing is the proportion of missing prefix-table entries.
	PrefixMissing float64
	// LeafPerfect and PrefixPerfect count nodes whose structure is
	// already perfect.
	LeafPerfect, PrefixPerfect int
	// LeafDead and PrefixDead count structure entries pointing at
	// departed nodes (nonzero only under churn).
	LeafDead, PrefixDead int
	// Alive is the number of live nodes at measurement time.
	Alive int
	// Sent and Dropped are cumulative network counters.
	Sent, Dropped int64
	// WireUnits is the cumulative traffic volume in descriptor units;
	// the paper argues the prefix part keeps messages well under the
	// full-table bound, which this exposes.
	WireUnits int64
	// LeafCI and PrefixCI are the half-widths of the sampled estimator's
	// confidence intervals around LeafMissing/PrefixMissing; zero for a
	// full (exact) measurement.
	LeafCI, PrefixCI float64
	// SampleSize is the number of nodes measured this cycle under
	// sampled measurement (the perfect/dead node counts are then scaled
	// projections); zero means every live node was measured exactly.
	SampleSize int
}

// Result is the outcome of a run.
type Result struct {
	Params Params
	// Points holds one entry per completed cycle, in order.
	Points []Point
	// ConvergedAt is the first cycle at which both structures were
	// perfect at every live node, or -1.
	ConvergedAt int
	// Stats is the final network traffic snapshot.
	Stats simnet.Stats
	// HeapBytes is the post-GC live heap captured at the end of the run
	// with the network still live; 0 unless Params.MemStats was set.
	HeapBytes uint64
}

// member is one node of the experiment network.
type member struct {
	desc  peer.Descriptor
	boot  *core.Node
	nc    *newscast.Protocol
	alive bool
	// joinCycle is the cycle the node was spawned in (0 for the initial
	// population). Sampled measurement stratifies on it: nodes younger
	// than freshAgeCycles are the "fresh" stratum (truth.Member.Fresh).
	joinCycle int
}

// freshAgeCycles is the stratification boundary for sampled measurement: a
// node that joined fewer than this many cycles before the measurement is
// "fresh" — its structures are still mostly empty, so it sits in the other
// mode of the bimodal missing-count mixture churn creates.
const freshAgeCycles = 2

// Run executes the experiment and returns the per-cycle series.
func Run(p Params) (*Result, error) {
	if p.Sampler == 0 {
		p.Sampler = SamplerOracle
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	r := &runner{p: p}
	return r.run()
}

type runner struct {
	p   Params
	net *simnet.Network
	rng *rand.Rand // harness-level randomness (offsets, churn picks)
	// measurement holds the trial's ground-truth oracle (tr), built once
	// and then mutated incrementally by churn/join deltas — never rebuilt
	// per cycle, the measurement plane's dominant cost at paper scale.
	measurement
	idGen      *id.Generator
	oracle     *sampling.Oracle
	samplerSeq int64 // newscast sampler seed counter (spawn order)
	members    []*member
	byID       flat.Table[*member]
	// arena backs every node's leaf-set and prefix-table blocks for the
	// lifetime of the trial; churn victims return their blocks on kill.
	arena *peer.DescriptorArena
	// aliveBuf and measBuf are reused across measure calls.
	aliveBuf []*member
	measBuf  []truth.Member
	// cycle is the loop's current cycle index; spawn stamps it on new
	// members so measurement can stratify by node age.
	cycle int
}

func (r *runner) run() (*Result, error) {
	p := r.p
	r.net = simnet.New(simnet.Config{Seed: p.Seed, Drop: p.Drop, Shards: p.Shards})
	r.rng = rand.New(rand.NewSource(p.Seed + 0x9e3779b9))
	r.measurement = measurement{
		sample:     p.MeasureSample,
		confidence: p.MeasureConfidence,
		workers:    p.MeasureWorkers,
		rng:        rand.New(rand.NewSource(p.Seed + 0x5ca1ab1e)),
	}
	r.idGen = id.NewGenerator(p.Seed + 0x7f4a7c15)
	// Explicit initial IDs bypass the generator, so reserve them: later
	// churn/join draws are then collision-free by construction (the
	// generator never repeats a reserved or produced ID).
	r.idGen.Reserve(p.IDs...)
	r.byID.Reserve(p.N)
	// One descriptor arena per trial: the harness owns it, every node's
	// structures borrow blocks from it (core.Config.Arena), and applyChurn
	// returns a victim's blocks the moment it is permanently retired.
	r.arena = peer.NewDescriptorArena()
	r.p.Config.Arena = r.arena

	descs := make([]peer.Descriptor, p.N)
	for i := 0; i < p.N; i++ {
		nodeID := r.idGen.Next()
		if len(p.IDs) == p.N {
			nodeID = p.IDs[i]
		}
		descs[i] = peer.Descriptor{ID: nodeID, Addr: r.net.AddNode()}
	}
	r.oracle = sampling.NewOracle(descs, p.Seed+0x1234)

	delta := p.Config.Delta
	warmup := int64(0)
	if p.Sampler == SamplerNewscast {
		warmup = int64(p.WarmupCycles) * delta
	}
	for i := 0; i < p.N; i++ {
		m, err := r.spawn(descs[i], warmup)
		if err != nil {
			return nil, err
		}
		r.members = append(r.members, m)
	}
	if p.Sampler == SamplerNewscast && warmup > 0 {
		r.net.Run(warmup)
	}
	ids := make([]id.ID, len(r.members))
	for i, m := range r.members {
		ids[i] = m.desc.ID
	}
	tr, err := truth.New(ids, p.Config.B, p.Config.K, p.Config.C)
	if err != nil {
		return nil, err
	}
	r.tr = tr

	// A massive join is the run's only scheduled event: convergence is
	// declared at or after its cycle.
	lastEvent := -1
	if p.Join.Count > 0 {
		lastEvent = p.Join.Cycle
	}
	start := r.net.Now()
	points, convergedAt, err := Drive(p.MaxCycles, lastEvent, p.KeepRunningAfterPerfect, func(cycle int) (Point, bool, error) {
		r.cycle = cycle
		if p.Churn.Active(cycle) {
			if err := r.applyChurn(); err != nil {
				return Point{}, false, err
			}
		}
		if p.Join.Count > 0 && cycle == p.Join.Cycle {
			if err := r.applyJoin(p.Join.Count); err != nil {
				return Point{}, false, err
			}
		}
		r.net.Run(start + int64(cycle+1)*delta)
		pt, perfect := r.measure(cycle, cycle >= lastEvent)
		return pt, perfect, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Result{Params: p, Points: points, ConvergedAt: convergedAt}
	res.Stats = r.net.Stats()
	if p.MemStats {
		if p.memCampaign != nil {
			res.HeapBytes = p.memCampaign.Sample()
		} else {
			res.HeapBytes = memstats.HeapAlloc()
		}
		// The sample sees only what is reachable: without this the
		// collector may free the whole network before it is taken.
		runtime.KeepAlive(r)
	}
	return res, nil
}

// spawn creates a node: its sampling instance (live NEWSCAST or shared
// oracle) and its bootstrap instance, attached with a random start offset
// within one Δ, as the paper prescribes.
func (r *runner) spawn(d peer.Descriptor, bootstrapStart int64) (*member, error) {
	p := r.p
	m := &member{desc: d, alive: true, joinCycle: r.cycle}
	var svc sampling.Service
	switch p.Sampler {
	case SamplerNewscast:
		// Seed the view with a few random contacts (the "bootstrap
		// server" a joining node would contact in practice).
		m.nc = newscast.New(d, r.oracle.Sample(5), newscast.DefaultViewSize)
		if err := r.net.Attach(d.Addr, newscast.ProtoID, m.nc, p.Config.Delta, r.rng.Int63n(p.Config.Delta)); err != nil {
			return nil, fmt.Errorf("attach newscast: %w", err)
		}
		// The adapter draws from the co-located view through its own
		// seeded stream instead of the node's engine RNG, and gives
		// the bootstrap layer the AppendSampler fast path.
		r.samplerSeq++
		svc = newscast.NewSampler(m.nc, p.Seed+0x51*r.samplerSeq)
	default:
		if p.Shards > 1 {
			// Parallel dispatch would interleave draws on the shared
			// oracle stream in worker order, making the trace depend on
			// scheduling. Give every node its own deterministic Stream
			// keyed by spawn order instead (livenet does the same); the
			// node's draw sequence is then a pure function of the seed
			// and invariant across shard counts.
			r.samplerSeq++
			svc = r.oracle.Stream(r.samplerSeq)
		} else {
			svc = r.oracle
		}
	}
	boot, err := core.NewNode(d, p.Config, svc)
	if err != nil {
		return nil, err
	}
	m.boot = boot
	offset := bootstrapStart + r.rng.Int63n(p.Config.Delta)
	if err := r.net.Attach(d.Addr, core.ProtoID, boot, p.Config.Delta, offset); err != nil {
		return nil, fmt.Errorf("attach bootstrap: %w", err)
	}
	r.byID.Put(d.ID, m)
	return m, nil
}

// applyChurn replaces Rate*N random live nodes with fresh ones and applies
// the delta to the trial's ground-truth oracle.
func (r *runner) applyChurn() error {
	n := int(r.p.Churn.Rate * float64(r.p.N))
	if n == 0 && r.p.Churn.Rate > 0 {
		n = 1
	}
	alive := r.aliveMembers()
	if n > len(alive) {
		n = len(alive)
	}
	perm := r.rng.Perm(len(alive))
	removed := make([]id.ID, n)
	for i := 0; i < n; i++ {
		victim := alive[perm[i]]
		victim.alive = false
		r.net.Kill(victim.desc.Addr)
		// A churned node never comes back (unlike a livenet Kill/Respawn):
		// hand its structure blocks to the arena for the replacement wave.
		victim.boot.Release()
		r.oracle.Remove(victim.desc.ID)
		r.byID.Delete(victim.desc.ID)
		removed[i] = victim.desc.ID
	}
	added := make([]id.ID, n)
	for i := 0; i < n; i++ {
		d := peer.Descriptor{ID: r.idGen.Next(), Addr: r.net.AddNode()}
		r.oracle.Add(d)
		m, err := r.spawn(d, 0)
		if err != nil {
			return err
		}
		r.members = append(r.members, m)
		added[i] = d.ID
	}
	return r.tr.Update(added, removed)
}

// applyJoin starts count fresh nodes within the coming cycle — a massive
// simultaneous join. New nodes appear in the sampling layer immediately
// (the paper's NEWSCAST handles that in a handful of cycles even after
// doubling; with the oracle it is instant).
func (r *runner) applyJoin(count int) error {
	added := make([]id.ID, count)
	for i := 0; i < count; i++ {
		d := peer.Descriptor{ID: r.idGen.Next(), Addr: r.net.AddNode()}
		r.oracle.Add(d)
		m, err := r.spawn(d, 0)
		if err != nil {
			return err
		}
		r.members = append(r.members, m)
		added[i] = d.ID
	}
	return r.tr.Update(added, nil)
}

func (r *runner) aliveMembers() []*member {
	out := r.aliveBuf[:0]
	for _, m := range r.members {
		if m.alive {
			out = append(out, m)
		}
	}
	r.aliveBuf = out
	return out
}

// measure computes the network-wide missing proportions against ground
// truth for the current membership (see measurePoint), sharding the
// per-node measurement across MeasureWorkers goroutines. The simulator is
// quiescent between Run calls, so the parallel readers see stable protocol
// state.
func (r *runner) measure(cycle int, settled bool) (Point, bool) {
	alive := r.aliveMembers()
	ms := r.measBuf[:0]
	for _, m := range alive {
		ms = append(ms, truth.Member{
			Self: m.desc.ID, Leaf: m.boot.Leaf(), Table: m.boot.Table(),
			Fresh: cycle-m.joinCycle < freshAgeCycles,
		})
	}
	r.measBuf = ms
	st := r.net.Stats()
	return r.measurePoint(ms, cycle, settled, len(alive), st.Sent, st.Dropped, st.WireUnits)
}

// PointFromAggregate converts MeasureAll's integer sums — possibly summed
// across processes — into the per-cycle Point every engine reports
// (wireUnits is 0 on the host engines, which do no descriptor-unit
// accounting).
func PointFromAggregate(cycle int, agg truth.Aggregate, alive int, sent, dropped, wireUnits int64) Point {
	pt := Point{
		Cycle:         cycle,
		LeafPerfect:   agg.LeafPerfect,
		PrefixPerfect: agg.PrefixPerfect,
		LeafDead:      agg.LeafDead,
		PrefixDead:    agg.PrefixDead,
		Alive:         alive,
		Sent:          sent,
		Dropped:       dropped,
		WireUnits:     wireUnits,
	}
	if agg.LeafTotal > 0 {
		pt.LeafMissing = float64(agg.LeafMissing) / float64(agg.LeafTotal)
	}
	if agg.PrefixTotal > 0 {
		pt.PrefixMissing = float64(agg.PrefixMissing) / float64(agg.PrefixTotal)
	}
	return pt
}

// pointFromSampleAggregate converts a sampled measurement into a Point:
// estimated missing proportions with their interval half-widths, and the
// per-node count metrics scaled from the sample to the live population.
func pointFromSampleAggregate(cycle int, sa truth.SampleAggregate, alive int, sent, dropped, wireUnits int64) Point {
	pt := PointFromAggregate(cycle, sa.Sums, alive, sent, dropped, wireUnits)
	pt.LeafMissing = sa.LeafMissing.Mean
	pt.PrefixMissing = sa.PrefixMissing.Mean
	if sa.Exact {
		return pt
	}
	pt.LeafCI, pt.PrefixCI = sa.LeafMissing.CI, sa.PrefixMissing.CI
	pt.SampleSize = sa.SampleSize
	scale := float64(sa.Population) / float64(sa.SampleSize)
	pt.LeafPerfect = int(math.Round(float64(pt.LeafPerfect) * scale))
	pt.PrefixPerfect = int(math.Round(float64(pt.PrefixPerfect) * scale))
	pt.LeafDead = int(math.Round(float64(pt.LeafDead) * scale))
	pt.PrefixDead = int(math.Round(float64(pt.PrefixDead) * scale))
	return pt
}

// WriteCSV emits the per-cycle series with a header, one row per cycle.
// Runs with sampled measurement grow ±ci and sample-size columns; full
// measurement keeps the historical column set byte-identically (pinned by
// the golden CSV test).
func (res *Result) WriteCSV(w io.Writer) error {
	sampled := res.Params.MeasureSample > 0
	header := "cycle,leaf_missing,prefix_missing,leaf_perfect_nodes,prefix_perfect_nodes,leaf_dead,prefix_dead,alive,sent,dropped,wire_units"
	if sampled {
		header += ",leaf_ci,prefix_ci,sample_size"
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	for _, pt := range res.Points {
		row := strconv.Itoa(pt.Cycle) + "," +
			strconv.FormatFloat(pt.LeafMissing, 'e', 6, 64) + "," +
			strconv.FormatFloat(pt.PrefixMissing, 'e', 6, 64) + "," +
			strconv.Itoa(pt.LeafPerfect) + "," +
			strconv.Itoa(pt.PrefixPerfect) + "," +
			strconv.Itoa(pt.LeafDead) + "," +
			strconv.Itoa(pt.PrefixDead) + "," +
			strconv.Itoa(pt.Alive) + "," +
			strconv.FormatInt(pt.Sent, 10) + "," +
			strconv.FormatInt(pt.Dropped, 10) + "," +
			strconv.FormatInt(pt.WireUnits, 10)
		if sampled {
			row += "," + strconv.FormatFloat(pt.LeafCI, 'e', 6, 64) +
				"," + strconv.FormatFloat(pt.PrefixCI, 'e', 6, 64) +
				"," + strconv.Itoa(pt.SampleSize)
		}
		if _, err := fmt.Fprintln(w, row); err != nil {
			return err
		}
	}
	return nil
}

// Final returns the last measured point. It returns a zero Point for an
// empty series.
func (res *Result) Final() Point {
	if len(res.Points) == 0 {
		return Point{}
	}
	return res.Points[len(res.Points)-1]
}
