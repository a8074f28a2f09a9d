package livenet

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/peer"
)

// EventOp enumerates the churn/failure actions a scenario can schedule.
type EventOp int

const (
	// OpKill crashes Frac of the currently running hosts (at least one).
	OpKill EventOp = iota + 1
	// OpRespawn restarts every currently dead host.
	OpRespawn
	// OpPartition splits the network: messages crossing the boundary
	// between hosts with Addr < Split and the rest are dropped.
	OpPartition
	// OpHeal removes the partition.
	OpHeal
	// OpSetDrop sets the per-message loss probability to Value; a
	// negative Value restores the run's configured baseline.
	OpSetDrop
	// OpSetLatency sets the delivery latency window to [Min, Max]; a
	// negative bound restores the run's configured baseline window.
	OpSetLatency
)

// String implements fmt.Stringer.
func (op EventOp) String() string {
	switch op {
	case OpKill:
		return "kill"
	case OpRespawn:
		return "respawn"
	case OpPartition:
		return "partition"
	case OpHeal:
		return "heal"
	case OpSetDrop:
		return "set-drop"
	case OpSetLatency:
		return "set-latency"
	default:
		return fmt.Sprintf("op(%d)", int(op))
	}
}

// Event is one scheduled churn/failure action, applied at the beginning of
// the given cycle of a campaign run. The schedule is the reproducible part
// of a live trial: it is a pure function of (seed, n, cycles), while the
// delivery order under real concurrency is not.
type Event struct {
	// Cycle is the campaign cycle the event fires at, starting at 0.
	Cycle int
	// Op selects the action.
	Op EventOp
	// Frac is the fraction of running hosts affected (OpKill).
	Frac float64
	// Value is the new drop probability (OpSetDrop).
	Value float64
	// Min and Max bound the new latency window (OpSetLatency).
	Min, Max time.Duration
	// Split is the partition boundary (OpPartition): hosts with
	// Addr < Split form one side.
	Split int
}

// KillCount is how many of alive running hosts an OpKill event crashes:
// Frac of them, at least one, but never so many that fewer than two
// survive to gossip with each other. A result below one means none.
func (e Event) KillCount(alive int) int {
	k := int(e.Frac * float64(alive))
	if k == 0 && e.Frac > 0 {
		k = 1
	}
	return min(k, alive-2)
}

// Cut returns the OpPartition predicate for boundary split: it reports
// true for messages between a host with Addr < split and one without.
func Cut(split int) func(from, to peer.Addr) bool {
	s := peer.Addr(split)
	return func(from, to peer.Addr) bool { return (from < s) != (to < s) }
}

// String renders the event in the canonical golden-trace form.
func (e Event) String() string {
	switch e.Op {
	case OpKill:
		return fmt.Sprintf("@%d kill frac=%.3f", e.Cycle, e.Frac)
	case OpRespawn:
		return fmt.Sprintf("@%d respawn", e.Cycle)
	case OpPartition:
		return fmt.Sprintf("@%d partition split=%d", e.Cycle, e.Split)
	case OpHeal:
		return fmt.Sprintf("@%d heal", e.Cycle)
	case OpSetDrop:
		if e.Value < 0 {
			return fmt.Sprintf("@%d set-drop baseline", e.Cycle)
		}
		return fmt.Sprintf("@%d set-drop p=%.3f", e.Cycle, e.Value)
	case OpSetLatency:
		if e.Min < 0 || e.Max < 0 {
			return fmt.Sprintf("@%d set-latency baseline", e.Cycle)
		}
		return fmt.Sprintf("@%d set-latency min=%s max=%s", e.Cycle, e.Min, e.Max)
	default:
		return fmt.Sprintf("@%d %s", e.Cycle, e.Op)
	}
}

// TraceSchedule renders a schedule one event per line — the golden-trace
// format pinned by the determinism tests.
func TraceSchedule(events []Event) string {
	var b strings.Builder
	for _, e := range events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Scenario is a named, deterministic churn/failure schedule generator.
// Schedule must be a pure function of its arguments: the same (seed, n,
// cycles) always yields the identical event list, which is what makes a
// live campaign reproducible even though message interleaving is not.
type Scenario struct {
	// Name identifies the scenario in CLI flags and output headers.
	Name string
	// Schedule produces the event list for a run of the given length
	// over n hosts. A nil Schedule means no events.
	Schedule func(seed int64, n, cycles int) []Event
}

// Events returns the schedule, sorted by cycle (stable), with events at
// or beyond the campaign length discarded — an out-of-range event would
// never fire yet would push the last-event cycle past the run and make
// the runner's convergence condition unreachable. Nil for the empty
// scenario.
func (s Scenario) Events(seed int64, n, cycles int) []Event {
	if s.Schedule == nil || cycles <= 0 {
		return nil
	}
	evs := s.Schedule(seed, n, cycles)
	// Copy before filtering/sorting: a custom Schedule may legitimately
	// return a cached slice, which an in-place rewrite would corrupt for
	// the next call. Restorative out-of-range events are clamped to the
	// final cycle rather than discarded — dropping a heal or a
	// back-to-baseline would leave the fault permanently applied, the
	// exact outcome the filter exists to prevent.
	kept := make([]Event, 0, len(evs))
	for _, e := range evs {
		if e.Cycle >= cycles {
			if !e.restorative() {
				continue
			}
			e.Cycle = cycles - 1
		}
		kept = append(kept, e)
	}
	sort.SliceStable(kept, func(i, j int) bool { return kept[i].Cycle < kept[j].Cycle })
	return kept
}

// restorative reports whether the event undoes a fault rather than
// injecting one: healing a partition, respawning dead hosts, or restoring
// the baseline loss/latency model.
func (e Event) restorative() bool {
	switch e.Op {
	case OpHeal, OpRespawn:
		return true
	case OpSetDrop:
		return e.Value < 0
	case OpSetLatency:
		return e.Min < 0 || e.Max < 0
	default:
		return false
	}
}

// Builtin scenarios. Each derives its schedule from the seed alone, so a
// campaign re-run with the same seed replays the identical fault plan.
var (
	// ScenarioNone runs failure-free.
	ScenarioNone = Scenario{Name: "none"}

	// ScenarioChurn alternates crash waves and mass respawns: every few
	// cycles a random ~10% of the running hosts crash; two cycles later
	// all dead hosts come back (crash-recovery). Wave spacing and sizes
	// are jittered from the seed.
	ScenarioChurn = Scenario{Name: "churn", Schedule: churnSchedule}

	// ScenarioPartition cuts the network in half for the middle third of
	// the run, then heals it — the classic split/merge robustness test.
	ScenarioPartition = Scenario{Name: "partition", Schedule: partitionSchedule}

	// ScenarioDrop ramps the loss rate up to 40% and back down.
	ScenarioDrop = Scenario{Name: "drop", Schedule: dropSchedule}

	// ScenarioLatency injects latency spikes: short windows where the
	// delivery delay jumps by an order of magnitude.
	ScenarioLatency = Scenario{Name: "latency", Schedule: latencySchedule}
)

// Builtins lists the built-in scenarios.
func Builtins() []Scenario {
	return []Scenario{ScenarioNone, ScenarioChurn, ScenarioPartition, ScenarioDrop, ScenarioLatency}
}

// ParseScenario resolves a built-in scenario by name.
func ParseScenario(name string) (Scenario, error) {
	for _, s := range Builtins() {
		if s.Name == name {
			return s, nil
		}
	}
	names := make([]string, 0, len(Builtins()))
	for _, s := range Builtins() {
		names = append(names, s.Name)
	}
	return Scenario{}, fmt.Errorf("unknown scenario %q (want one of %s)", name, strings.Join(names, ", "))
}

func churnSchedule(seed int64, n, cycles int) []Event {
	rng := rand.New(rand.NewSource(seed ^ 0x6c69766573696d)) // "livesim"
	var evs []Event
	// Leave a head start to build some structure and a tail to observe
	// recovery after the last respawn; compress both for short runs so
	// every campaign of at least ~6 cycles sees at least one wave.
	c := 3 + rng.Intn(3)
	tail := 5
	if cycles < c+tail+3 {
		c = 1 + rng.Intn(2)
		tail = 2
	}
	for c < cycles-tail {
		frac := 0.05 + 0.10*rng.Float64()
		evs = append(evs, Event{Cycle: c, Op: OpKill, Frac: frac})
		evs = append(evs, Event{Cycle: c + 2, Op: OpRespawn})
		c += 4 + rng.Intn(4)
	}
	return evs
}

func partitionSchedule(seed int64, n, cycles int) []Event {
	rng := rand.New(rand.NewSource(seed ^ 0x706172746974)) // "partit"
	at := cycles / 3
	heal := 2 * cycles / 3
	if heal <= at {
		heal = at + 1
	}
	// Split somewhere near the middle, jittered so the two sides differ
	// across seeds. Clamped to [1, n-1] so both sides are non-empty even
	// on tiny networks — split=0 would make the cut a silent no-op.
	lo, hi := n/4, 3*n/4
	if lo < 1 {
		lo = 1
	}
	if hi > n-1 {
		hi = n - 1
	}
	if hi <= lo {
		hi = lo + 1
	}
	split := lo + rng.Intn(hi-lo)
	return []Event{
		{Cycle: at, Op: OpPartition, Split: split},
		{Cycle: heal, Op: OpHeal},
	}
}

func dropSchedule(seed int64, n, cycles int) []Event {
	rng := rand.New(rand.NewSource(seed ^ 0x64726f70)) // "drop"
	start := 2 + rng.Intn(3)
	// Leave a recovery tail after the restore event: convergence is only
	// claimable once the fault plan is fully applied, so a restore on the
	// final cycle would make converged_frac 0 by construction.
	last := cycles - 5
	if start > last {
		start = last
	}
	if start < 0 {
		return nil
	}
	// Interpolate the ramp over [start, last] so the final restore-to-
	// baseline event always lands inside the campaign — on short runs the
	// ramp compresses (same-cycle events apply in order, last one wins)
	// rather than losing its tail to the out-of-range filter.
	ramp := []float64{0.10, 0.25, 0.40, 0.10, -1}
	evs := make([]Event, 0, len(ramp))
	for i, v := range ramp {
		c := start + i*(last-start)/(len(ramp)-1)
		evs = append(evs, Event{Cycle: c, Op: OpSetDrop, Value: v})
	}
	return evs
}

func latencySchedule(seed int64, n, cycles int) []Event {
	rng := rand.New(rand.NewSource(seed ^ 0x6c6174656e6379)) // "latency"
	var evs []Event
	c := 3 + rng.Intn(3)
	for c < cycles-3 {
		spike := time.Duration(10+rng.Intn(40)) * time.Millisecond
		evs = append(evs, Event{Cycle: c, Op: OpSetLatency, Min: spike / 2, Max: spike})
		evs = append(evs, Event{Cycle: c + 2, Op: OpSetLatency, Min: -1, Max: -1}) // back to baseline
		c += 5 + rng.Intn(5)
	}
	return evs
}
