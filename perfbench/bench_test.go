package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/experiment"
)

func smallBootstrap(seed int64) simSpec {
	return simSpec{N: 256, Seed: seed, MinCycles: 12, MaxCycles: 40}
}

func smallChurn(seed int64) simSpec {
	return simSpec{
		N: 256, Seed: seed, Shards: 2,
		Churn:     experiment.Churn{Rate: 0.02, StartCycle: 0, StopCycle: 6},
		MinCycles: 10, MaxCycles: 10,
	}
}

// The benchmark re-implements the experiment harness's loop; its series must
// be the harness's, byte for byte, on the sequential and sharded engines.
func TestLoopMatchesHarness(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		for _, spec := range []simSpec{smallBootstrap(seed), smallChurn(seed)} {
			res, err := runSim(spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkAgainstHarness(spec, res); err != nil {
				t.Errorf("shards=%d seed=%d: %v", spec.Shards, seed, err)
			}
		}
	}
}

// The probes forward every callback and sampler draw unchanged, so a
// traced run produces the untraced run's trace.
func TestProbesTransparent(t *testing.T) {
	for _, spec := range []simSpec{smallBootstrap(3), smallChurn(3)} {
		plain, err := runSim(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		traced, err := runSim(spec, tr)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := spec.csv(plain.points)
		b, _ := spec.csv(traced.points)
		if a != b || plain.stats != traced.stats || plain.events != traced.events {
			t.Errorf("shards=%d: traced trace differs from untraced", spec.Shards)
		}
		if s := tr.summarize(); s.calls[spTick] == 0 || s.calls[spSample] == 0 || s.calls[spSimRun] != int64(len(traced.points)) {
			t.Errorf("shards=%d: spans missing: ticks=%d samples=%d runs=%d", spec.Shards, s.calls[spTick], s.calls[spSample], s.calls[spSimRun])
		}
	}
}

func TestUnionWithin(t *testing.T) {
	ivs := [][2]int64{{5, 8}, {0, 3}, {2, 4}, {7, 12}, {20, 30}}
	if got := unionWithin(ivs, 1, 11); got != 3+(11-5) {
		t.Errorf("unionWithin = %d, want 9", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	l := tr.newLane()
	l.spans = []span{
		{start: 0, end: 100, parent: -1, name: spTick},
		{start: 10, end: 30, parent: 0, name: spSample},
		{start: 40, end: 50, parent: 0, name: spSample},
	}
	s := tr.summarize()
	if s.self[spTick] != 70 || s.total[spSample] != 30 || s.calls[spSample] != 2 {
		t.Errorf("self=%d sample total=%d calls=%d", s.self[spTick], s.total[spSample], s.calls[spSample])
	}
}

// BENCHMARK.json declares the metrics the benchmark prints; the two lists
// must not drift apart.
func TestBenchmarkJSONDeclaresMetrics(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	var e2e, layers, names []string
	for _, m := range decl.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for i, m := range decl.PerLayer {
		layers = append(layers, m.Name)
		if i < len(perLayerMetrics) && m.Unit != perLayerMetrics[i].unit {
			t.Errorf("%s: unit %q declared, %q printed", m.Name, m.Unit, perLayerMetrics[i].unit)
		}
	}
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("declared workload %s is not implemented", w.Name)
		}
	}
	var printed []string
	for _, m := range perLayerMetrics {
		printed = append(printed, m.name)
	}
	if !slices.Equal(e2e, endToEndNames()) || !slices.Equal(layers, printed) || len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %v / %v / %v;\nthe benchmark prints %v / %v", e2e, layers, names, endToEndNames(), printed)
	}
}

func endToEndNames() []string {
	return []string{"setup_s", "wall_s", "ops_per_s", "cpu_us_per_op", "heap_bytes_per_node", "peak_rss_mb"}
}

// checkMetrics asserts a run reported exactly the metric set of its mode,
// with every end-to-end metric non-zero.
func checkMetrics(t *testing.T, name string, trace bool, res *result, checks []string) {
	t.Helper()
	if len(checks) > 0 {
		t.Errorf("%s trace=%v: checks failed: %v", name, trace, checks)
	}
	var want []string
	if trace {
		for _, m := range perLayerMetrics {
			want = append(want, m.name)
		}
	} else {
		want = endToEndNames()
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
	}
	for _, n := range want {
		m, ok := res.Metrics[n]
		if !ok {
			t.Errorf("%s trace=%v: metric %s missing", name, trace, n)
			continue
		}
		if !trace && m.Value <= 0 {
			t.Errorf("%s: %s = %v, want > 0", name, n, m.Value)
		}
	}
	if res.Attempted < 1 {
		t.Errorf("%s trace=%v: attempted = %d", name, trace, res.Attempted)
	}
}

// A small run of every workload through both modes exercises the metric
// plumbing end to end.
func TestWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	gossip := func(socket bool) gossipSpec {
		return gossipSpec{
			N: 64, Seed: 5, Socket: socket, Period: 50 * time.Millisecond, Cycles: 40,
			WaveEvery: 10, WaveDown: 3, WaveFrac: 0.05, Tail: 20, MeasureEvery: 10,
		}
	}
	serve := serveSpec{N: 256, Seed: 5, Keys: 256, Workers: 2, Cycles: 3, OpsPerCycle: 3000, GetRatio: 0.9, RemoveFrac: 0.01, ValueSize: 16}
	runs := map[string]func(o options, res *result, checks *[]string) error{
		"bootstrap":     func(o options, r *result, c *[]string) error { return runSimWorkload(o, smallBootstrap(5), r, c) },
		"churn":         func(o options, r *result, c *[]string) error { return runSimWorkload(o, smallChurn(5), r, c) },
		"gossip-live":   func(o options, r *result, c *[]string) error { return runGossip(o, gossip(false), r, c) },
		"gossip-socket": func(o options, r *result, c *[]string) error { return runGossip(o, gossip(true), r, c) },
		"serve":         func(o options, r *result, c *[]string) error { return runServe(o, serve, r, c) },
	}
	if len(runs) != len(workloads) {
		t.Fatalf("smoke covers %d workloads, benchmark has %d", len(runs), len(workloads))
	}
	for name, fn := range runs {
		for _, trace := range []bool{false, true} {
			o := options{workload: name, seed: 5, seconds: 1, trace: trace, spans: t.TempDir()}
			res := &result{Metrics: map[string]metric{}}
			var checks []string
			if err := fn(o, res, &checks); err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			checkMetrics(t, name, trace, res, checks)
		}
	}
}

func TestArgsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve", "--trace", "2"},
		{"--workload", "serve", "--seconds", "0"},
		{"--workload", "serve", "extra"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() > 0 {
			t.Errorf("%v: exit %d, stdout %q; want non-zero exit and no result", args, code, out.String())
		}
	}
}

func TestResultLine(t *testing.T) {
	var out, errOut bytes.Buffer
	// serve at --seconds 1 is the cheapest full-size workload.
	if testing.Short() {
		t.Skip("runs the full-size serve workload")
	}
	if code := run([]string{"--workload", "serve", "--seed", "1", "--seconds", "1", "--trace", "0"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	checkMetrics(t, "serve", false, &res, nil)
	if !res.Correct {
		t.Error("correct = false")
	}
}
