// Command netsim runs socket-engine campaigns of the bootstrapping
// service sharded across real OS processes: each worker process owns
// n/procs hosts behind its own TCP (or UDP) port on a port-indexed
// localhost topology, every protocol message crosses the kernel through
// the internal/wire codec, and the driver aggregates the same per-cycle
// CSV series bootsim and livesim emit. It is the third engine's campaign
// driver — after bootsim (deterministic simulation) and livesim
// (goroutine concurrency), netsim measures the protocol over an actual
// network stack: serialization, kernel backpressure, per-process failure
// isolation.
//
// Usage:
//
//	netsim [flags]
//
//	-n int          network size (hosts) (default 1024)
//	-procs int      worker processes sharding the hosts (default 4)
//	-cycles int     campaign length in periods (default 30)
//	-period dur     gossip period Δ; 0 scales with -n (default 0)
//	-scenario name  none|churn|partition|drop (default "churn")
//	-drop float     initial sender-side loss probability (default 0)
//	-seed int       campaign seed (default 42)
//	-base-port int  worker p listens on base-port+p (default 18500)
//	-inbox int      per-host inbox bound; 0 = engine default
//	-queue int      per-peer send-queue bound; 0 = engine default
//	-udp            datagram sockets instead of TCP streams
//	-measure-workers int  goroutines sharding each worker's measurement
//	-full           keep running after convergence
//	-o path         write the CSV to path instead of stdout
//
// The latency scenario is rejected: the socket engine measures the
// kernel's real delivery latency instead of injecting one.
//
// Workers are respawns of the same binary (-worker -proc p) driven over a
// line protocol on stdin/stdout; their logs go to stderr. At the end of a
// campaign the driver drains every worker to quiescence and checks the
// cross-process conservation law ΣSent == ΣDelivered + ΣDropped +
// ΣOverflow — a non-conserved campaign exits non-zero.
//
// Examples:
//
//	netsim -n 128 -procs 2 -cycles 10 -scenario none
//	netsim -n 1024 -procs 4 -scenario churn
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/livenet"
	"repro/internal/transport"
	"repro/internal/truth"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	n              int
	procs          int
	cycles         int
	period         time.Duration
	scenario       livenet.Scenario
	drop           float64
	seed           int64
	basePort       int
	inbox, queue   int
	udp            bool
	measureWorkers int
	full           bool
	out            string

	worker bool
	proc   int
}

func parseArgs(args []string) (*options, error) {
	fs := flag.NewFlagSet("netsim", flag.ContinueOnError)
	var (
		n        = fs.Int("n", 1024, "network size (hosts)")
		procs    = fs.Int("procs", 4, "worker processes")
		cycles   = fs.Int("cycles", 30, "campaign length in periods")
		period   = fs.Duration("period", 0, "gossip period; 0 scales with -n")
		scenario = fs.String("scenario", "churn", "none|churn|partition|drop")
		drop     = fs.Float64("drop", 0, "initial loss probability")
		seed     = fs.Int64("seed", 42, "campaign seed")
		basePort = fs.Int("base-port", 18500, "worker p listens on base-port+p")
		inbox    = fs.Int("inbox", 0, "per-host inbox bound (0 = default)")
		queue    = fs.Int("queue", 0, "per-peer send-queue bound (0 = default)")
		udp      = fs.Bool("udp", false, "datagram sockets instead of TCP")
		measure  = fs.Int("measure-workers", 0, "measurement goroutines per worker (0 = GOMAXPROCS)")
		full     = fs.Bool("full", false, "keep running after convergence")
		out      = fs.String("o", "", "output path (default stdout)")
		worker   = fs.Bool("worker", false, "run as a worker process (internal)")
		proc     = fs.Int("proc", 0, "worker shard index (internal)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	opts := &options{
		n: *n, procs: *procs, cycles: *cycles, period: *period,
		drop: *drop, seed: *seed, basePort: *basePort,
		inbox: *inbox, queue: *queue, udp: *udp,
		measureWorkers: *measure, full: *full, out: *out,
		worker: *worker, proc: *proc,
	}
	switch *scenario {
	case "none":
		opts.scenario = livenet.ScenarioNone
	case "churn":
		opts.scenario = livenet.ScenarioChurn
	case "partition":
		opts.scenario = livenet.ScenarioPartition
	case "drop":
		opts.scenario = livenet.ScenarioDrop
	default:
		return nil, fmt.Errorf("unknown scenario %q (latency is unsupported: the kernel provides the latency)", *scenario)
	}
	if opts.procs < 1 {
		return nil, fmt.Errorf("-procs must be at least 1")
	}
	if opts.period == 0 {
		// Resolve the default here so one value reaches every worker
		// explicitly rather than each process re-deriving it.
		opts.period = experiment.DefaultLivePeriod(opts.n, 1)
	}
	return opts, nil
}

func (o *options) socketParams(proc int) experiment.SocketParams {
	return experiment.SocketParams{
		N:                       o.n,
		Config:                  core.DefaultConfig(),
		Period:                  o.period,
		Cycles:                  o.cycles,
		Drop:                    o.drop,
		InboxSize:               o.inbox,
		QueueSize:               o.queue,
		Procs:                   o.procs,
		Proc:                    proc,
		BasePort:                o.basePort,
		UDP:                     o.udp,
		Scenario:                o.scenario,
		MeasureWorkers:          o.measureWorkers,
		KeepRunningAfterPerfect: o.full,
	}
}

func run(args []string, stdout, stderr io.Writer) int {
	opts, err := parseArgs(args)
	if err != nil {
		fmt.Fprintln(stderr, "netsim:", err)
		return 2
	}
	if opts.worker {
		if err := runWorker(opts, os.Stdin, stdout, stderr); err != nil {
			fmt.Fprintf(stderr, "netsim worker %d: %v\n", opts.proc, err)
			return 1
		}
		return 0
	}
	if err := runDriver(opts, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "netsim:", err)
		return 1
	}
	return 0
}

// pointMsg is one worker's per-cycle report: its partial measurement
// (integer sums over its local members), the alive counts, and its
// current traffic counters.
type pointMsg struct {
	Agg         truth.Aggregate
	LocalAlive  int
	GlobalAlive int
	Stats       transport.Stats
}

// runWorker executes one shard under the driver's line protocol:
//
//	worker → READY <lastEventCycle>
//	driver → CYCLE <c>     worker → POINT <json pointMsg>
//	driver → DRAIN         worker → DRAINED <ok> <json Stats>
//	driver → STATS         worker → STATS <json Stats>
//	driver → EXIT          worker closes and exits
func runWorker(opts *options, stdin io.Reader, stdout, stderr io.Writer) error {
	trial, err := experiment.NewSocketTrial(opts.socketParams(opts.proc), opts.seed)
	if err != nil {
		return err
	}
	defer trial.Close()
	if err := trial.Start(); err != nil {
		return err
	}
	out := bufio.NewWriter(stdout)
	say := func(format string, a ...any) error {
		if _, err := fmt.Fprintf(out, format+"\n", a...); err != nil {
			return err
		}
		return out.Flush()
	}
	if err := say("READY %d", trial.LastEventCycle); err != nil {
		return err
	}
	sc := bufio.NewScanner(stdin)
	for sc.Scan() {
		cmd, rest, _ := strings.Cut(strings.TrimSpace(sc.Text()), " ")
		switch cmd {
		case "CYCLE":
			cycle, err := strconv.Atoi(rest)
			if err != nil {
				return fmt.Errorf("bad CYCLE %q", rest)
			}
			agg, la, ga, err := trial.StepCycle(cycle)
			if err != nil {
				return err
			}
			msg, err := json.Marshal(pointMsg{Agg: agg, LocalAlive: la, GlobalAlive: ga, Stats: trial.Stats()})
			if err != nil {
				return err
			}
			if err := say("POINT %s", msg); err != nil {
				return err
			}
		case "DRAIN":
			ok := trial.Drain(15 * time.Second)
			msg, err := json.Marshal(trial.Stats())
			if err != nil {
				return err
			}
			if err := say("DRAINED %t %s", ok, msg); err != nil {
				return err
			}
		case "STATS":
			msg, err := json.Marshal(trial.Stats())
			if err != nil {
				return err
			}
			if err := say("STATS %s", msg); err != nil {
				return err
			}
		case "EXIT":
			return nil
		default:
			return fmt.Errorf("unknown command %q", cmd)
		}
	}
	// Driver went away (EOF): tear down quietly.
	return sc.Err()
}

// workerProc is the driver's handle on one spawned worker.
type workerProc struct {
	proc int
	cmd  *exec.Cmd
	in   *bufio.Writer
	out  *bufio.Scanner
}

func (w *workerProc) send(line string) error {
	if _, err := fmt.Fprintln(w.in, line); err != nil {
		return fmt.Errorf("worker %d: %w", w.proc, err)
	}
	return w.in.Flush()
}

// expect reads the next protocol line and strips the required prefix.
func (w *workerProc) expect(prefix string) (string, error) {
	if !w.out.Scan() {
		if err := w.out.Err(); err != nil {
			return "", fmt.Errorf("worker %d: %w", w.proc, err)
		}
		return "", fmt.Errorf("worker %d: exited early (wanted %s)", w.proc, prefix)
	}
	line := strings.TrimSpace(w.out.Text())
	rest, found := strings.CutPrefix(line, prefix+" ")
	if !found && line != prefix {
		return "", fmt.Errorf("worker %d: got %q, wanted %s", w.proc, line, prefix)
	}
	return rest, nil
}

// runDriver spawns the workers, steps the campaign cycle by cycle,
// aggregates the partial measurements, drains everyone to quiescence, and
// verifies the cross-process conservation law.
func runDriver(opts *options, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	workerArgs := []string{
		"-worker",
		"-n", strconv.Itoa(opts.n),
		"-procs", strconv.Itoa(opts.procs),
		"-cycles", strconv.Itoa(opts.cycles),
		"-period", opts.period.String(),
		"-scenario", opts.scenario.Name,
		"-drop", strconv.FormatFloat(opts.drop, 'g', -1, 64),
		"-seed", strconv.FormatInt(opts.seed, 10),
		"-base-port", strconv.Itoa(opts.basePort),
		"-inbox", strconv.Itoa(opts.inbox),
		"-queue", strconv.Itoa(opts.queue),
		"-measure-workers", strconv.Itoa(opts.measureWorkers),
	}
	if opts.udp {
		workerArgs = append(workerArgs, "-udp")
	}
	if opts.full {
		workerArgs = append(workerArgs, "-full")
	}

	workers := make([]*workerProc, opts.procs)
	defer func() {
		for _, w := range workers {
			if w != nil {
				w.cmd.Process.Kill()
				w.cmd.Wait()
			}
		}
	}()
	for p := 0; p < opts.procs; p++ {
		cmd := exec.Command(exe, append(append([]string{}, workerArgs...), "-proc", strconv.Itoa(p))...)
		// The env marker lets a test binary reroute itself into worker
		// mode; the real binary keys off -worker alone.
		cmd.Env = append(os.Environ(), "NETSIM_WORKER=1")
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return err
		}
		out, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("spawn worker %d: %w", p, err)
		}
		sc := bufio.NewScanner(out)
		sc.Buffer(make([]byte, 64*1024), 1<<20)
		workers[p] = &workerProc{proc: p, cmd: cmd, in: bufio.NewWriter(stdin), out: sc}
	}

	lastEvent := -1
	for _, w := range workers {
		rest, err := w.expect("READY")
		if err != nil {
			return err
		}
		if v, err := strconv.Atoi(rest); err == nil && v > lastEvent {
			lastEvent = v
		}
	}
	fmt.Fprintf(stderr, "netsim: %d workers up (n=%d procs=%d period=%s scenario=%s)\n",
		opts.procs, opts.n, opts.procs, opts.period, opts.scenario.Name)

	points, convergedAt, err := experiment.Drive(opts.cycles, lastEvent, opts.full, func(cycle int) (experiment.Point, bool, error) {
		for _, w := range workers {
			if err := w.send("CYCLE " + strconv.Itoa(cycle)); err != nil {
				return experiment.Point{}, false, err
			}
		}
		var sum truth.Aggregate
		var st transport.Stats
		globalAlive, localSum := -1, 0
		for _, w := range workers {
			rest, err := w.expect("POINT")
			if err != nil {
				return experiment.Point{}, false, err
			}
			var msg pointMsg
			if err := json.Unmarshal([]byte(rest), &msg); err != nil {
				return experiment.Point{}, false, fmt.Errorf("worker %d point: %w", w.proc, err)
			}
			sum.Add(msg.Agg)
			st.Add(msg.Stats)
			localSum += msg.LocalAlive
			if globalAlive >= 0 && msg.GlobalAlive != globalAlive {
				return experiment.Point{}, false, fmt.Errorf("cycle %d: workers disagree on membership (%d vs %d) — fault plans diverged", cycle, globalAlive, msg.GlobalAlive)
			}
			globalAlive = msg.GlobalAlive
		}
		if localSum != globalAlive {
			return experiment.Point{}, false, fmt.Errorf("cycle %d: local alive counts sum to %d, plan says %d", cycle, localSum, globalAlive)
		}
		pt := experiment.PointFromAggregate(cycle, sum, globalAlive, st.Sent, st.Dropped, 0)
		return pt, pt.LeafMissing == 0 && pt.PrefixMissing == 0, nil
	})
	if err != nil {
		return err
	}

	// Quiesce: stop every worker's tick sources, wait for each local
	// drain, then poll the global sum until stable — frames can still be
	// crossing process boundaries when an individual worker reports
	// settled.
	for _, w := range workers {
		if err := w.send("DRAIN"); err != nil {
			return err
		}
	}
	for _, w := range workers {
		rest, err := w.expect("DRAINED")
		if err != nil {
			return err
		}
		if ok, _, _ := strings.Cut(rest, " "); ok != "true" {
			fmt.Fprintf(stderr, "netsim: worker %d did not settle locally\n", w.proc)
		}
	}
	var final transport.Stats
	for round := 0; round < 50; round++ {
		var cur transport.Stats
		for _, w := range workers {
			if err := w.send("STATS"); err != nil {
				return err
			}
		}
		for _, w := range workers {
			rest, err := w.expect("STATS")
			if err != nil {
				return err
			}
			var st transport.Stats
			if err := json.Unmarshal([]byte(rest), &st); err != nil {
				return err
			}
			cur.Add(st)
		}
		if round > 0 && cur == final {
			final = cur
			break
		}
		final = cur
		time.Sleep(50 * time.Millisecond)
	}
	for _, w := range workers {
		if err := w.send("EXIT"); err != nil {
			return err
		}
	}
	for _, w := range workers {
		if err := w.cmd.Wait(); err != nil {
			return fmt.Errorf("worker %d: %w", w.proc, err)
		}
	}
	workers = nil

	out := stdout
	if opts.out != "" {
		f, err := os.Create(opts.out)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	fmt.Fprintf(out, "# netsim n=%d procs=%d period=%s cycles=%d scenario=%s seed=%d drop=%g udp=%t\n",
		opts.n, opts.procs, opts.period, opts.cycles, opts.scenario.Name, opts.seed, opts.drop, opts.udp)
	fmt.Fprintf(out, "# converged_at=%d\n", convergedAt)
	agg := experiment.AggregateSeries([][]experiment.Point{points}, []int{convergedAt})
	if err := experiment.WriteAggCSV(out, agg, false); err != nil {
		return err
	}
	conservedOK := final.Sent == final.Delivered+final.Dropped+final.Overflow
	fmt.Fprintf(out, "# netstats sent=%d delivered=%d dropped=%d overflow=%d conserved=%t\n",
		final.Sent, final.Delivered, final.Dropped, final.Overflow, conservedOK)
	if !conservedOK {
		return fmt.Errorf("traffic counters not conserved at quiescence: %+v (diff %d)",
			final, final.Sent-final.Delivered-final.Dropped-final.Overflow)
	}
	if convergedAt < 0 {
		fmt.Fprintf(stderr, "netsim: campaign did not converge in %d cycles\n", opts.cycles)
	}
	return nil
}
