// Command perfbench is the verifier's benchmark. It runs one workload
// of BENCHMARK.json as a closed loop with one client, checks every
// verdict against its known answer, and prints the workload's metrics
// as the last line of standard output. From the root of a checkout:
//
//	python3 perfbench/run.py --workload solve-unsat --seed 1 --seconds 28 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of untraced runs,
// each a median over loop units: verdict_s is the mean wall time per
// task of a unit with the time the hypervisor stole from the machine
// taken out, as the kernel takes it out of CPU time; cpu_s the mean
// user+system CPU time per task; peak_rss_mb the highest per-task peak
// resident set of a unit; setup_s the median of repeated set-ups; and
// ok_frac the share of tasks that passed the oracle. The wall time with
// the stolen time left in is printed on a comment line.
//
// With --trace 1 it alternates untraced and traced units: a traced unit
// calls each layer's public functions (unfold, flatten, vc, partition,
// sat, parallel, trace, distrib, journal) itself and times every call,
// which gives the per-layer metrics; the difference between the two is
// the tracing overhead. Certified workloads also run a probe that splits
// the certified solve into plain search, proof logging and RUP check.
//
// Before the metrics it prints the host fingerprint, per task the
// conflict/decision/propagation counters next to the recorded ones, and
// the share of busy CPU time the hypervisor stole during the run.
// `go test .` in this directory is the harness's self-test.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime/debug"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	budget   time.Duration
	trace    bool
	short    bool
	workdir  string
	commit   string
}

// deadline bounds a whole run, so a stuck verification fails the run
// instead of hanging it.
const deadline = 150 * time.Second

// setupReps is how many times set-up is repeated; setup_s is the median.
const setupReps = 41

// spec is the part of BENCHMARK.json the harness reads: which metrics
// to print, with their units.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var seconds, traceFlag int
	var specPath string
	fs.StringVar(&cfg.workload, "workload", "", "workload name from BENCHMARK.json")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.IntVar(&seconds, "seconds", 28, "measuring time budget in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1: report per-layer metrics from traced units")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build/run", "directory for journals")
	fs.StringVar(&cfg.commit, "commit", "unknown", "git commit, for the host fingerprint")
	fs.StringVar(&specPath, "spec", "BENCHMARK.json", "benchmark definition")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.budget = time.Duration(seconds) * time.Second
	cfg.trace = traceFlag == 1
	sp, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	out, err := measure(cfg, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(out.result(sp, cfg.trace))
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// outcome is what one run measured.
type outcome struct {
	attempted, failed int
	values            map[string]float64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result keeps the metrics BENCHMARK.json names for this mode. A layer
// the workload does not exercise reads 0.
func (o *outcome) result(sp *spec, traced bool) result {
	list := sp.EndToEnd
	if traced {
		list = sp.PerLayer
	}
	r := result{
		Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: make(map[string]metric, len(list)),
	}
	for _, m := range list {
		v := o.values[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		r.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	return r
}

// tally tracks verdicts and the search counters of every distinct task.
type tally struct {
	stderr            io.Writer
	attempted, failed int
	counters          map[string]counters
	drift             map[string]bool
	walls             map[string][]float64
	order             []string
}

func (t *tally) record(tk task, wall time.Duration, c counters, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(t.stderr, "perfbench: FAILED %s: %v\n", tk.name, err)
		return
	}
	if prev, ok := t.counters[tk.name]; ok {
		if prev != c {
			t.drift[tk.name] = true
		}
	} else {
		t.counters[tk.name] = c
		t.order = append(t.order, tk.name)
		if want, ok := wantCounters[tk.name]; ok && want != c {
			t.drift[tk.name] = true
		}
	}
	t.walls[tk.name] = append(t.walls[tk.name], wall.Seconds())
}

// print writes one line per task: its median wall time and its counters
// next to the recorded ones. A changed counter means the search changed;
// it is flagged, not failed.
func (t *tally) print(w io.Writer) {
	for _, name := range t.order {
		want := "unrecorded"
		if c, ok := wantCounters[name]; ok {
			want = c.String()
		}
		flag := "same"
		if t.drift[name] {
			flag = "CHANGED"
		}
		fmt.Fprintf(w, "# task %s runs=%d median_s=%.4f conflicts/decisions/propagations=%s recorded=%s %s\n",
			name, len(t.walls[name]), median(t.walls[name]), t.counters[name], want, flag)
	}
}

func measure(cfg config, stdout, stderr io.Writer) (*outcome, error) {
	var w *workload
	for _, c := range workloads(cfg.short) {
		if c.name == cfg.workload {
			c := c
			w = &c
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	hostLine, _ := json.Marshal(fingerprint(cfg.commit))
	fmt.Fprintf(stdout, "# host %s\n", hostLine)

	// Set-up is repeated so its median is steady; the last one is used.
	var setups []float64
	var e *env
	for i := 0; i < setupReps; i++ {
		if e != nil {
			e.close()
		}
		start := time.Now()
		var err error
		if e, err = setup(*w, cfg.workdir); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer e.close()

	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	rng := rand.New(rand.NewSource(cfg.seed))
	ticks := readCPUTicks()
	tl := &tally{stderr: stderr, counters: map[string]counters{}, drift: map[string]bool{}, walls: map[string][]float64{}}
	var values map[string]float64
	if cfg.trace {
		values = measureTraced(ctx, cfg, *w, e, rng, tl)
		values["prog.build_s"] = e.build.Seconds()
		values["bench.counter_drift"] = float64(len(tl.drift))
		values["bench.fail_frac"] = float64(tl.failed) / float64(tl.attempted)
	} else {
		values = measureUntraced(ctx, cfg, *w, e, rng, tl, stdout)
		values["setup_s"] = median(setups)
		values["ok_frac"] = float64(tl.attempted-tl.failed) / float64(tl.attempted)
	}
	tl.print(stdout)
	fmt.Fprintf(stdout, "# load stolen_share=%.4f\n", stolenShare(ticks, readCPUTicks()))
	return &outcome{attempted: tl.attempted, failed: tl.failed, values: values}, nil
}

// more reports whether another loop unit fits the budget: at least one
// unit always runs, and a unit starts only if a typical one would end
// within the budget.
func more(start time.Time, budget time.Duration, units []float64) bool {
	if len(units) == 0 {
		return true
	}
	return time.Since(start).Seconds()+median(units) <= budget.Seconds()
}

// unitStats is what one untraced loop unit measured.
type unitStats struct {
	wall    float64 // whole unit, seconds
	raw     float64 // mean wall time per task, seconds
	verdict float64 // raw, less the time stolen by the hypervisor
	cpu     float64 // mean per task, seconds
	rss     float64 // highest per-task peak RSS, MiB
}

// runUnit runs one loop unit untraced.
func runUnit(ctx context.Context, e *env, tasks []task, run *int, tl *tally) unitStats {
	var u unitStats
	start := time.Now()
	for _, t := range tasks {
		// Every task starts from a collected heap returned to the OS, as
		// in a fresh process, so its peak RSS is its own.
		debug.FreeOSMemory()
		resetPeakRSS()
		cpu0 := cpuTime()
		k0 := readCPUTicks()
		t0 := time.Now()
		c, err := verify(ctx, e, t, *run)
		d := time.Since(t0)
		u.verdict += d.Seconds() * (1 - stolenShare(k0, readCPUTicks()))
		u.cpu += (cpuTime() - cpu0).Seconds()
		u.rss = math.Max(u.rss, float64(peakRSS())/(1<<20))
		u.raw += d.Seconds()
		*run++
		tl.record(t, d, c, err)
	}
	u.wall = time.Since(start).Seconds()
	u.raw /= float64(len(tasks))
	u.verdict /= float64(len(tasks))
	u.cpu /= float64(len(tasks))
	return u
}

// measureUntraced runs the closed loop with tracing off and returns the
// end-to-end metrics (setup_s and ok_frac are added by the caller), each
// the median over loop units. verdict_s and cpu_s take the per-task mean
// of a unit, so every task of a mixed unit counts. On a shared host the
// hypervisor gives a busy CPU's time to other tenants now and then, by
// a share that drifts over minutes; verdict_s leaves that stolen time
// out so runs at different times compare.
func measureUntraced(ctx context.Context, cfg config, w workload, e *env, rng *rand.Rand, tl *tally, stdout io.Writer) map[string]float64 {
	var walls, raws, verdicts, cpus, rss []float64
	run := 0
	for start := time.Now(); more(start, cfg.budget, walls); {
		u := runUnit(ctx, e, w.unit(rng, len(walls)), &run, tl)
		walls = append(walls, u.wall)
		raws = append(raws, u.raw)
		verdicts = append(verdicts, u.verdict)
		cpus = append(cpus, u.cpu)
		rss = append(rss, u.rss)
	}
	fmt.Fprintf(tl.stderr, "perfbench: unit walls %.3f\n", walls)
	fmt.Fprintf(stdout, "# wall per task, steal included: median %.4f s over %d units\n", median(raws), len(raws))
	return map[string]float64{
		"verdict_s":   median(verdicts),
		"cpu_s":       median(cpus),
		"peak_rss_mb": median(rss),
	}
}

// measureTraced alternates an untraced and a traced run of each loop
// unit and returns the per-layer metrics: the median over traced units
// of every layer figure, overlaid with the probe's.
func measureTraced(ctx context.Context, cfg config, w workload, e *env, rng *rand.Rand, tl *tally) map[string]float64 {
	start := time.Now()
	probed := sample{}
	if w.probe {
		t := allTasks(w)[0]
		err := probe(probed, e.programs[t.name], t)
		tl.attempted++
		if err != nil {
			tl.failed++
			fmt.Fprintf(tl.stderr, "perfbench: FAILED probe %s: %v\n", t.name, err)
		}
	}
	var pairs, plain, tracedMeans []float64
	var units []sample
	run := 0
	for more(start, cfg.budget, pairs) {
		tasks := w.unit(rng, len(pairs))
		u := runUnit(ctx, e, tasks, &run, tl)

		s := sample{}
		busy := 0.0 // traced task time, the untraced verdict time's twin
		t0 := time.Now()
		for _, t := range tasks {
			debug.FreeOSMemory()
			t1 := time.Now()
			c, err := traced(ctx, s, e, t, run)
			d := time.Since(t1)
			busy += d.Seconds()
			tl.record(t, d, c, err)
			// The journal replay is timed apart from the task it follows.
			if t.distributed() && err == nil {
				if err := replayJournal(s, e.journalPath(run)); err != nil {
					tl.failed++
					fmt.Fprintf(tl.stderr, "perfbench: FAILED journal replay: %v\n", err)
				}
			}
			run++
		}
		finishSearch(s)
		covered := 0.0
		for _, k := range coveredLayers {
			covered += s[k]
		}
		s.ratio("bench.layer_cover_frac", covered, busy)
		units = append(units, s)
		plain = append(plain, u.raw)
		tracedMeans = append(tracedMeans, busy/float64(len(tasks)))
		pairs = append(pairs, u.wall+time.Since(t0).Seconds())
	}

	fmt.Fprintf(tl.stderr, "perfbench: task means untraced %.3f traced %.3f\n", plain, tracedMeans)
	values := map[string]float64{}
	keys := map[string]bool{}
	for _, s := range units {
		for k := range s {
			keys[k] = true
		}
	}
	for k := range keys {
		var xs []float64
		for _, s := range units {
			if v, ok := s[k]; ok {
				xs = append(xs, v)
			}
		}
		values[k] = median(xs)
	}
	for k, v := range probed {
		values[k] = v
	}
	if jobs := values["distrib.jobs"]; jobs > 0 {
		// Computed, not timed: every job re-encodes the program, at the
		// front-half cost the probe measured in this process.
		values["distrib.reencode_s"] = jobs * (values["unfold.busy_s"] + values["flatten.busy_s"] +
			values["vc.busy_s"] + values["partition.busy_s"])
	}
	values["bench.trace_overhead_frac"] = median(tracedMeans)/median(plain) - 1
	return values
}
