package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/prog"
)

// width is the integer bit width of every task (the verifier default).
const width = 8

// task is one verification call with its known answer.
type task struct {
	name     string
	build    func() *prog.Program
	unwind   int
	contexts int
	// partitions and cores configure the local solver; distributed
	// tasks run partitions chunks of one partition on workers workers.
	partitions, cores int
	certify           bool
	workers           int // > 0: distributed over loopback TCP
	want              core.Verdict
}

func (t task) distributed() bool { return t.workers > 0 }

// counters are the deterministic search counters of one task.
type counters struct {
	conflicts, decisions, propagations int64
}

func (c counters) String() string {
	return fmt.Sprintf("%d/%d/%d", c.conflicts, c.decisions, c.propagations)
}

// wantCounters are the conflicts/decisions/propagations each task
// produced when the benchmark was defined. A mismatch means the search
// changed: it is reported, not failed.
var wantCounters = map[string]counters{
	"eliminationstack-u2c6":   {11096, 26033, 29064588},
	"safestack-u2c6-p16":      {2558, 9182, 5709930},
	"safestack-u2c6-p16-dist": {2558, 9182, 5709930},
	"boundedbuffer-u2c6":      {415, 934, 767073},
	"boundedbuffer-u3c6":      {501, 1216, 1140843},
	"workstealingqueue-u2c7":  {1064, 3067, 1885621},
	"fibonacci2-u2c6":         {263, 766, 231470},
	"fibonacci3-u3c8":         {2850, 6391, 2839008},
}

// workload is a closed loop with one client: each unit is a list of
// tasks run back to back, the next starting only after the previous
// verdict.
type workload struct {
	name string
	// unit returns the tasks of the i-th loop unit; rng is seeded from
	// --seed.
	unit func(rng *rand.Rand, i int) []task
	// probe is set on workloads whose traced run also decomposes the
	// certified solve into plain search, proof logging and RUP checking.
	probe bool
}

var (
	elimination = task{name: "eliminationstack-u2c6", build: bench.Eliminationstack,
		unwind: 2, contexts: 6, partitions: 1, cores: 1, want: core.Safe}
	certLocal = task{name: "safestack-u2c6-p16", build: bench.Safestack,
		unwind: 2, contexts: 6, partitions: 16, cores: 2, certify: true, want: core.Safe}
	certDist = task{name: "safestack-u2c6-p16-dist", build: bench.Safestack,
		unwind: 2, contexts: 6, partitions: 16, cores: 1, certify: true, workers: 2, want: core.Safe}
	bugs = []task{
		{name: "boundedbuffer-u2c6", build: bench.Boundedbuffer, unwind: 2, contexts: 6},
		{name: "boundedbuffer-u3c6", build: bench.Boundedbuffer, unwind: 3, contexts: 6},
		{name: "workstealingqueue-u2c7", build: bench.Workstealingqueue, unwind: 2, contexts: 7},
		{name: "fibonacci2-u2c6", build: func() *prog.Program { return bench.Fibonacci(2) }, unwind: 2, contexts: 6},
		{name: "fibonacci3-u3c8", build: func() *prog.Program { return bench.Fibonacci(3) }, unwind: 3, contexts: 8},
	}
)

// workloads returns the benchmark's workloads. short swaps every task
// for a small instance of the same shape, for the self-test.
func workloads(short bool) []workload {
	es, cl, cd := elimination, certLocal, certDist
	bh := append([]task(nil), bugs...)
	if short {
		es.name, es.unwind, es.contexts = "eliminationstack-u1c3", 1, 3
		cl.name, cl.unwind, cl.contexts, cl.partitions = "safestack-u1c4-p4", 1, 4, 4
		cd.name, cd.unwind, cd.contexts, cd.partitions = "safestack-u1c4-p4-dist", 1, 4, 4
		bh = []task{bugs[0], bugs[3]}
	}
	for i := range bh {
		bh[i].partitions, bh[i].cores, bh[i].want = 1, 1, core.Unsafe
	}
	one := func(t task) func(*rand.Rand, int) []task {
		return func(*rand.Rand, int) []task { return []task{t} }
	}
	// BENCHMARK.json records why each workload exists.
	return []workload{
		{name: "solve-unsat", unit: one(es)},
		{name: "cert-local", unit: one(cl), probe: true},
		{name: "dist-loopback", unit: one(cd), probe: true},
		{name: "bug-hunt", unit: func(rng *rand.Rand, _ int) []task {
			batch := append([]task(nil), bh...)
			rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
			return batch
		}},
	}
}

// env is what set-up prepares before the first verification call.
type env struct {
	programs map[string]*prog.Program
	build    time.Duration // time spent building programs
	dir      string        // holds the journals of distributed tasks
	ln       net.Listener  // pre-bound listener for the first distributed task
}

// setup builds every program the workload's tasks verify and, for a
// distributed workload, creates the journal directory and binds the
// first listener.
func setup(w workload, workdir string) (*env, error) {
	e := &env{programs: map[string]*prog.Program{}}
	start := time.Now()
	for _, t := range allTasks(w) {
		if _, ok := e.programs[t.name]; !ok {
			e.programs[t.name] = t.build()
		}
	}
	e.build = time.Since(start)
	if !allTasks(w)[0].distributed() {
		return e, nil
	}
	dir, err := os.MkdirTemp(workdir, w.name+"-")
	if err != nil {
		return nil, fmt.Errorf("create journal dir: %w", err)
	}
	e.dir = dir
	if e.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("bind listener: %w", err)
	}
	return e, nil
}

// close releases what setup acquired and a task did not consume.
func (e *env) close() {
	if e.ln != nil {
		e.ln.Close()
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// listener hands out the pre-bound listener once, then binds fresh ones
// (Coordinate closes its listener when the run ends).
func (e *env) listener() (net.Listener, error) {
	if ln := e.ln; ln != nil {
		e.ln = nil
		return ln, nil
	}
	return net.Listen("tcp", "127.0.0.1:0")
}

// journalPath returns a fresh journal path for the i-th distributed run.
func (e *env) journalPath(i int) string {
	return filepath.Join(e.dir, fmt.Sprintf("run-%d.wal", i))
}

// allTasks lists the distinct tasks of a workload.
func allTasks(w workload) []task {
	return w.unit(rand.New(rand.NewSource(0)), 0)
}

// verify runs one task untraced, as a user would, and checks its
// verdict against the known answer.
func verify(ctx context.Context, e *env, t task, run int) (counters, error) {
	p := e.programs[t.name]
	if t.distributed() {
		ln, err := e.listener()
		if err != nil {
			return counters{}, err
		}
		res, err := coordinate(ctx, ln, p, t, e.journalPath(run))
		if err != nil {
			return counters{}, err
		}
		return statsCounters(res.RemoteStats), checkDistributed(t, res)
	}
	res, err := core.Verify(ctx, p, core.Options{
		Unwind: t.unwind, Contexts: t.contexts, Width: width,
		Cores: t.cores, Partitions: t.partitions, CertifyUnsat: t.certify,
	})
	if err != nil {
		return counters{}, err
	}
	var c counters
	for _, inst := range res.Instances {
		c.add(statsCounters(inst.Stats))
	}
	return c, checkLocal(t, res)
}

// coordinate runs one distributed verification: a coordinator on ln and
// t.workers in-process workers dialling it, with full certification and
// a journal at journalPath. It returns once every worker has exited.
func coordinate(ctx context.Context, ln net.Listener, p *prog.Program, t task, journalPath string) (*distrib.CoordinatorResult, error) {
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	addr := ln.Addr().String()
	werrs := make([]error, t.workers)
	var wg sync.WaitGroup
	for i := 0; i < t.workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, werrs[i] = distrib.Work(wctx, addr, distrib.WorkerOptions{
				Name: fmt.Sprintf("w%d", i+1), Cores: t.cores,
			})
		}()
	}
	res, err := distrib.Coordinate(ctx, ln, p, distrib.CoordinatorOptions{
		Unwind: t.unwind, Contexts: t.contexts, Width: width,
		Partitions: t.partitions, ChunkSize: 1, JournalPath: journalPath,
	})
	if err != nil {
		cancel()
	}
	wg.Wait()
	if err != nil {
		return nil, fmt.Errorf("coordinate: %w", err)
	}
	for i, werr := range werrs {
		if werr != nil {
			return nil, fmt.Errorf("worker w%d: %w", i+1, werr)
		}
	}
	return res, nil
}

func (c *counters) add(o counters) {
	c.conflicts += o.conflicts
	c.decisions += o.decisions
	c.propagations += o.propagations
}

// checkLocal is the oracle for core.Verify results: the known verdict,
// a certificate when one was asked for, and a replayed violation for
// every counterexample.
func checkLocal(t task, res *core.Result) error {
	if res.Verdict != t.want {
		return fmt.Errorf("%s: verdict %v, want %v", t.name, res.Verdict, t.want)
	}
	if t.certify && !res.Certified {
		return fmt.Errorf("%s: verdict not certified", t.name)
	}
	if res.Verdict == core.Unsafe && res.Violation == nil {
		return fmt.Errorf("%s: counterexample does not replay to a violation", t.name)
	}
	return nil
}

// checkDistributed is the oracle for distributed results: the known
// verdict with every chunk decided under a verified certificate, and
// no quarantined or budget-exhausted chunk.
func checkDistributed(t task, res *distrib.CoordinatorResult) error {
	switch {
	case res.Verdict != t.want:
		return fmt.Errorf("%s: verdict %v, want %v", t.name, res.Verdict, t.want)
	case res.Certified != res.ChunksTotal:
		return fmt.Errorf("%s: %d of %d chunks certified", t.name, res.Certified, res.ChunksTotal)
	case len(res.Quarantined) > 0 || len(res.Exhausted) > 0:
		return fmt.Errorf("%s: %d quarantined, %d exhausted chunks", t.name, len(res.Quarantined), len(res.Exhausted))
	}
	return nil
}
