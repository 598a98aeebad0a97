// Package parallel runs independent SAT solver instances over the
// partitioned sub-formulae (Sect. 3.3/3.4): one decision procedure per
// partition, no cooperation, first satisfiable assignment wins and
// terminates the others; if every instance reports unsatisfiable, the
// program is safe within the bounds.
//
// Two robustness layers ride on top of the paper's scheme:
//
//   - Per-chunk resource budgets (Options.ChunkTimeout, ChunkConflicts)
//     bound every instance's wall clock and conflict count, so a poison
//     partition degrades to Unknown — with the exhausted budget recorded
//     in InstanceResult.Cause — instead of hanging the run.
//   - A crash-safe journal (Options.Journal) commits every definite and
//     budget-exhausted verdict; a restarted run with the same manifest
//     skips committed partitions and re-solves only the rest.
//
// Scheduling is the shared cube-tree engine (internal/cubetree): a
// static run is a tree whose roots never split; Options.SplitDepth
// lets straggling partitions split into sub-cubes at run time.
package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cnf"
	"repro/internal/cubetree"
	"repro/internal/journal"
	"repro/internal/partition"
	"repro/internal/sat"
)

// InstanceResult records one solver instance's outcome.
type InstanceResult struct {
	// Partition is the partition index solved.
	Partition int
	// Status is the instance verdict (Unknown if cancelled).
	Status sat.Status
	// Cause classifies an Unknown status: cancelled (context done or a
	// sibling won), timeout (ChunkTimeout expired), conflict-budget
	// (ChunkConflicts exhausted), or memory (MemBudgetMB exhausted or
	// the external MemAbort watchdog fired). CauseNone for definite
	// verdicts.
	Cause sat.StopCause
	// Resumed marks a verdict replayed from the journal rather than
	// solved in this run.
	Resumed bool
	// Proof is the instance's recorded refutation (Status == Unsat with
	// Options.KeepProofs; nil otherwise). Distributed workers ship it to
	// the coordinator as the UNSAT half of a verdict certificate.
	Proof *sat.Proof
	// Time is the instance's wall-clock solving time.
	Time time.Duration
	// Stats are the solver search statistics, including the final
	// Stats.Progress search-progress estimate — the per-partition
	// imbalance signal the run report and partition gauges surface.
	Stats sat.Stats
	// Hardness is the whole-run hardness score of this instance
	// (sat.Hardness over the full solve: conflict rate scaled by the
	// unrealised progress slope). Zero for resumed, cancelled-before-
	// start, or conflict-free instances.
	Hardness float64
	// Samples is the introspection time-series collected at the
	// Progress-callback cadence (nil unless Options.Progress and
	// ProgressEvery armed the solver; bounded to the most recent
	// sat.DefaultSamplerPoints points).
	Samples []sat.Sample
	// Cubes is the number of leaf cubes folded into this per-partition
	// result (1: the partition was solved whole).
	Cubes int
}

// Result is the aggregate outcome.
type Result struct {
	// Status is Sat if any partition is satisfiable, Unsat if all are
	// unsatisfiable, Unknown if cancelled or budget-exhausted first.
	Status sat.Status
	// Model is the satisfying assignment (Status == Sat).
	Model []bool
	// Winner is the partition index that found the model (-1 otherwise).
	Winner int
	// Instances holds the per-partition results that completed, were
	// cancelled, or were resumed from the journal, in partition order.
	Instances []InstanceResult
	// Resumed counts instances replayed from the journal.
	Resumed int
	// Wall is the overall wall-clock time.
	Wall time.Duration
	// Certified reports that every UNSAT instance's refutation proof
	// checked (only meaningful with Options.CertifyUnsat).
	Certified bool
	// JournalSealed reports that the journal sealed itself after a write
	// failure (ENOSPC, I/O error) mid-run: the remaining verdicts were
	// computed journal-less — still correct, no longer crash-durable.
	// Callers should surface it loudly.
	JournalSealed bool
	// JournalSealCause is the write error that sealed the journal.
	JournalSealCause string
	// Splits counts adaptive cube splits performed by this run (resumed
	// splits replayed from the journal are not re-counted); MaxCubeDepth
	// is the deepest cube path reached, including resumed paths.
	Splits       int
	MaxCubeDepth int
}

// Options configures the parallel run.
type Options struct {
	// Workers bounds the number of concurrently running solver
	// instances; 0 means one worker per partition.
	Workers int
	// Solver configures each underlying CDCL instance.
	Solver sat.Options
	// DiversifySeeds gives each instance a distinct RNG seed (only
	// relevant if Solver.RandomizeFreq > 0).
	DiversifySeeds bool
	// CertifyUnsat records a clausal (RUP) proof in every instance and
	// checks it whenever the instance reports UNSAT, so that Safe
	// verdicts are certified independently of the CDCL search — the
	// counterpart of replay-validating counterexamples.
	CertifyUnsat bool
	// KeepProofs records a clausal (RUP) proof in every instance and
	// retains it on InstanceResult.Proof for UNSAT instances, without
	// checking it locally — for distributed workers, whose proofs are
	// checked by the coordinator against its own encoding instead.
	KeepProofs bool
	// ChunkTimeout bounds each instance's wall-clock solving time; an
	// expired instance is interrupted and reports Unknown with
	// CauseTimeout (0 = unbounded).
	ChunkTimeout time.Duration
	// ChunkConflicts bounds each instance's conflict count; an exhausted
	// instance reports Unknown with CauseConflictBudget (0 = unbounded).
	// If Solver.MaxConflicts is also set, the smaller bound applies.
	ChunkConflicts int64
	// MemBudgetMB bounds each instance's approximate solver footprint in
	// MiB; an instance that cannot shrink back under it reports Unknown
	// with CauseMemory (0 = unbounded). If Solver.MemBudgetMB is also
	// set, the smaller bound applies.
	MemBudgetMB int64
	// MemAbort, when non-nil, is an external memory kill-switch (an RSS
	// watchdog): once it becomes receivable (typically by closing it),
	// every live and future solver of this run is aborted with
	// cause=memory — the budgeted, journalable analogue of
	// cancellation, fired before the OOM-killer can.
	MemAbort <-chan struct{}
	// Journal, when non-nil, makes the run crash-safe: committed UNSAT
	// and budget-Unknown verdicts are skipped on resume (their recorded
	// outcome is replayed into Instances), every newly decided or
	// budget-exhausted partition is durably committed before the run
	// acknowledges it, and cancelled instances are left uncommitted so a
	// restart re-solves them. A budget-Unknown record is replayed only
	// under budgets no larger than the ones it pinned at commit time; a
	// resume that raised the exhausted budget re-solves the partition.
	// SAT records are replayed by re-solving the winning partition
	// without budgets (the model is not journaled); a journaled SAT
	// verdict that fails to re-derive fails the run rather than being
	// silently demoted.
	Journal *journal.Journal
	// Progress, when non-nil and ProgressEvery > 0, receives live
	// search statistics for a partition every ProgressEvery conflicts,
	// invoked from that partition's solver goroutine (it must be
	// concurrency-safe and fast).
	Progress func(partition int, st sat.Stats)
	// ProgressEvery is the conflict cadence of Progress callbacks.
	ProgressEvery int64
	// SplitDepth enables in-process adaptive cube splitting: an idle
	// worker that finds the queue empty splits the hardest straggling
	// instance past SplitGrace on the next unfixed literal of SplitLits,
	// taking one half itself and queueing the other — up to SplitDepth
	// extra path bits per partition (0 disables; requires SplitLits).
	SplitDepth int
	// SplitGrace is the minimum solving age before an instance may be
	// split (default 15s when SplitDepth > 0).
	SplitGrace time.Duration
	// SplitHardness is the minimum live hardness score before an instance
	// qualifies for splitting (0: any straggler past the grace).
	SplitHardness float64
	// SplitLits is the canonical split-literal sequence (from
	// partition.SplitLits) whose polarities cube paths fix.
	SplitLits []cnf.Lit
}

// splitting reports whether the run may refine partitions into cubes.
func (o *Options) splitting() bool {
	return o.SplitDepth > 0 && len(o.SplitLits) > 0
}

// newInstance builds one partition's solver under the run's budgets,
// with proof logging on when certifying or keeping proofs. It arms the
// live progress hook and returns the sampler piggybacked on the same
// cadence (nil when the hook is disarmed — the sampler costs nothing
// beyond the callbacks the caller already asked for). note, when
// non-nil, also receives every sample: the hardness feed that steers
// splitting.
func (o *Options) newInstance(f *cnf.Formula, part int, note func(sat.Stats)) (*sat.Solver, *sat.Sampler) {
	sOpts := o.solverOptions(part)
	if note != nil && sOpts.ProgressEvery <= 0 {
		sOpts.ProgressEvery = 512 // splitting needs the feed even when the caller asked for none
	}
	solver := sat.NewFromFormula(f, sOpts)
	if o.CertifyUnsat || o.KeepProofs {
		solver.EnableProof()
	}
	if note == nil && (o.Progress == nil || o.ProgressEvery <= 0) {
		return solver, nil
	}
	sampler := sat.NewSampler(0)
	solver.Progress = func(st sat.Stats) {
		sampler.Observe(st)
		if note != nil {
			note(st)
		}
		if o.Progress != nil {
			o.Progress(part, st)
		}
	}
	return solver, sampler
}

// instance is the result of a finished solve.
func (o *Options) instance(part int, solver *sat.Solver, sampler *sat.Sampler, status sat.Status, cause sat.StopCause, elapsed time.Duration) InstanceResult {
	inst := InstanceResult{
		Partition: part,
		Status:    status,
		Cause:     cause,
		Time:      elapsed,
		Stats:     solver.Stats(),
		Samples:   sampler.Points(),
	}
	inst.Hardness = sat.Hardness(inst.Stats.Conflicts, inst.Stats.Progress, elapsed)
	if status == sat.Unsat && o.KeepProofs {
		inst.Proof = solver.ProofLog()
	}
	return inst
}

// solverOptions derives one instance's solver configuration, folding
// the per-chunk conflict budget into MaxConflicts.
func (o *Options) solverOptions(part int) sat.Options {
	sOpts := o.Solver
	if o.DiversifySeeds {
		sOpts.Seed = uint64(part) + 1
	}
	if o.ChunkConflicts > 0 && (sOpts.MaxConflicts == 0 || sOpts.MaxConflicts > o.ChunkConflicts) {
		sOpts.MaxConflicts = o.ChunkConflicts
	}
	if o.MemBudgetMB > 0 && (sOpts.MemBudgetMB == 0 || sOpts.MemBudgetMB > o.MemBudgetMB) {
		sOpts.MemBudgetMB = o.MemBudgetMB
	}
	sOpts.ProgressEvery = o.ProgressEvery
	return sOpts
}

// rederive re-solves a cube whose SAT verdict is already durable —
// journaled, or decided in a simulated schedule — for its model. The
// journal stores no model. The re-solve runs without any conflict or
// memory budget, so this run's (possibly smaller) budgets cannot demote
// a committed counterexample to Unknown; a SAT verdict that fails to
// re-derive means the journal and the formula disagree.
func (o *Options) rederive(f *cnf.Formula, part int, assume []cnf.Lit) ([]bool, error) {
	solver := sat.NewFromFormula(f, o.rederiveOptions(part))
	st, err := solver.Solve(assume...)
	if err != nil || st != sat.Sat {
		return nil, fmt.Errorf("parallel: SAT verdict for partition %d failed to re-derive its model (status %v, err %v)", part, st, err)
	}
	return solver.Model(), nil
}

// rederiveOptions is solverOptions without any conflict or memory
// budget (see rederive).
func (o *Options) rederiveOptions(part int) sat.Options {
	sOpts := o.solverOptions(part)
	sOpts.MaxConflicts = 0
	sOpts.MemBudgetMB = 0
	return sOpts
}

// replayable reports whether a committed record still binds this run.
// Definite verdicts always replay; a budget-exhausted Unknown is
// terminal only under budgets no larger than the ones it gave up
// under, so a run that raised the exhausted budget re-solves the
// partition instead.
func (o *Options) replayable(rec journal.ChunkRecord, part int) bool {
	if statusFromString(rec.Verdict) != sat.Unknown {
		return true
	}
	sOpts := o.solverOptions(part)
	return !rec.RetryUnder(o.ChunkTimeout.Milliseconds(), sOpts.MaxConflicts, sOpts.MemBudgetMB)
}

// replay rebuilds the run's cube tree — one root per partition — from
// the journal. A run that cannot split ignores sub-cube and SPLIT
// records: a sub-cube verdict covers only part of its partition, so
// such a run re-solves the partition whole rather than replay a
// fragment as if it were the full verdict.
func (o *Options) replay(parts []partition.Partition, split bool) cubetree.Replayed {
	roots := make([]partition.Cube, len(parts))
	for i, pt := range parts {
		roots[i] = partition.Cube{From: pt.Index, To: pt.Index}
	}
	var recs []journal.ChunkRecord
	if o.Journal != nil {
		for _, rec := range o.Journal.Committed() {
			if split || (rec.Path == "" && !rec.Split()) {
				recs = append(recs, rec)
			}
		}
	}
	return cubetree.Replay(roots, recs)
}

// resumedInstance is the result a committed record replays as.
func resumedInstance(part int, rec journal.ChunkRecord) InstanceResult {
	return InstanceResult{
		Partition: part,
		Status:    statusFromString(rec.Verdict),
		Cause:     sat.ParseStopCause(rec.Cause),
		Resumed:   true,
		Time:      time.Duration(rec.Millis) * time.Millisecond,
	}
}

// commit journals one instance verdict (path is the instance's cube
// path, empty for a whole partition). Definite verdicts and budget
// exhaustions are durable; cancellations are deliberately not committed
// (the partition is in-flight and must be requeued by a resume). A
// budget exhaustion pins the budgets it was computed under, so a resume
// can tell whether its own budgets supersede the give-up.
func (o *Options) commit(inst InstanceResult, path string) error {
	if o.Journal == nil || inst.Resumed {
		return nil
	}
	if inst.Status == sat.Unknown && !inst.Cause.Budgeted() {
		return nil
	}
	rec := journal.ChunkRecord{
		From: inst.Partition, To: inst.Partition, Path: path,
		Verdict: inst.Status.String(),
		Winner:  winnerOf(inst),
		Cause:   inst.Cause.String(),
		Millis:  inst.Time.Milliseconds(),
	}
	if inst.Cause.Budgeted() {
		sOpts := o.solverOptions(inst.Partition)
		rec.TimeoutMillis = o.ChunkTimeout.Milliseconds()
		rec.Conflicts = sOpts.MaxConflicts
		rec.MemBudgetMB = sOpts.MemBudgetMB
	}
	return o.Journal.Commit(rec)
}

func winnerOf(inst InstanceResult) int {
	if inst.Status == sat.Sat {
		return inst.Partition
	}
	return -1
}

// Solve checks the formula under each partition's assumptions in
// parallel. It honours ctx cancellation (returning Unknown), per-chunk
// budgets, and journal resume.
//
// Options.Workers goroutines drain one cube tree (internal/cubetree)
// whose roots are the partitions. Without splitting the tree never
// grows and every partition is solved whole. With SplitDepth and
// SplitLits set, a worker that finds the queue empty picks the hardest
// cube solving past SplitGrace, commits its SPLIT record, takes one
// child and queues the other; the interrupted victim's result is
// discarded as superseded. The children fix one more split literal in
// both polarities, so they partition the parent's assumption space
// exactly: both UNSAT refutes the parent, any model satisfies it. The
// SPLIT record lands before either child runs, so a resume finds the
// children pending and the parent permanently superseded.
func Solve(ctx context.Context, f *cnf.Formula, parts []partition.Partition, opts Options) (*Result, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("parallel: no partitions")
	}
	workers := opts.Workers
	if workers <= 0 || workers > len(parts) {
		workers = len(parts)
	}
	start := time.Now()
	// Cancellation — the first SAT result, or ctx — interrupts every
	// live solver through SolveCtx. The external memory kill-switch
	// cancels memCtx instead, which aborts them with cause=memory; a
	// solver registered after it fired is aborted on registration.
	solveCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	memCtx, memAbort := context.WithCancel(context.WithoutCancel(ctx))
	defer memAbort()

	r := &solveRun{
		f: f, opts: opts, ctx: solveCtx, cancel: cancel, memCtx: memCtx,
		split:  opts.splitting(),
		parts:  make(map[int]partition.Partition, len(parts)),
		leaves: make(map[int][]InstanceResult, len(parts)),
		res:    &Result{Status: sat.Unsat, Winner: -1},
	}
	var cfg cubetree.Config
	if r.split {
		cfg = cubetree.Config{
			SplitDepth: opts.SplitDepth, SplitBits: len(opts.SplitLits),
			SplitGrace: opts.SplitGrace, SplitHardness: opts.SplitHardness,
		}
	}
	r.tree = cubetree.New(cfg, func(a *cubetree.Assignment[*slot]) { a.Handle.interrupt() })
	for _, pt := range parts {
		r.parts[pt.Index] = pt
	}
	if err := r.resume(opts.replay(parts, r.split)); err != nil {
		return nil, err
	}
	if r.res.Status == sat.Sat {
		// A replayed SAT verdict decides the run: pending cubes are
		// cancelled exactly as if a live sibling had won the race.
		cancel()
	}

	if opts.MemAbort != nil {
		go func() {
			select {
			case <-opts.MemAbort:
				memAbort()
			case <-solveCtx.Done():
			}
		}()
	}
	// One prepared checker serves every cube's proof.
	if opts.CertifyUnsat && r.res.Status != sat.Sat {
		r.checker = sat.NewRUPChecker(f)
	}

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			r.work(key)
		}(fmt.Sprintf("w%d", i))
	}
	wg.Wait()
	return r.finish(ctx, parts, time.Since(start))
}

// solveRun is the shared state of one Solve call.
type solveRun struct {
	f      *cnf.Formula
	opts   Options
	ctx    context.Context
	cancel context.CancelFunc
	split  bool
	parts  map[int]partition.Partition
	tree   *cubetree.Tree[*slot]

	checker *sat.RUPChecker
	memCtx  context.Context // cancelled when Options.MemAbort fires

	mu         sync.Mutex
	res        *Result
	leaves     map[int][]InstanceResult // per partition, one per decided leaf
	err        error                    // first fatal failure: ends the run
	certFailed bool
}

// slot is the in-process cancellation handle of one assignment: the
// solver to interrupt once it exists. An interrupt that lands before
// the solver does is applied on attach.
type slot struct {
	mu     sync.Mutex
	solver *sat.Solver
	stop   bool
}

func (s *slot) interrupt() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stop = true
	if s.solver != nil {
		s.solver.Interrupt()
	}
}

func (s *slot) attach(solver *sat.Solver) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.solver = solver
	if s.stop {
		solver.Interrupt()
	}
}

// resume folds the replayed tree into the run: leaves whose committed
// record still binds become resumed results, the rest are queued.
func (r *solveRun) resume(rep cubetree.Replayed) error {
	r.res.MaxCubeDepth = rep.MaxDepth
	for _, l := range rep.Leaves {
		idx := l.Cube.From
		if l.Record == nil || !r.opts.replayable(*l.Record, idx) {
			r.tree.Enqueue(l.Cube)
			continue
		}
		inst := resumedInstance(idx, *l.Record)
		r.leaves[idx] = append(r.leaves[idx], inst)
		r.res.Resumed++
		if inst.Status != sat.Sat || r.res.Status == sat.Sat {
			continue
		}
		// Re-derive the model now so the resumed run still produces a
		// decodable counterexample. Refusing a disagreeing journal beats
		// silently reporting UNSAT over a durably recorded
		// counterexample.
		assume, err := r.assumptions(l.Cube)
		if err != nil {
			return err
		}
		model, err := r.opts.rederive(r.f, idx, assume)
		if err != nil {
			return fmt.Errorf("%w; refusing to resume against a disagreeing journal", err)
		}
		r.res.Status = sat.Sat
		r.res.Model = model
		r.res.Winner = idx
	}
	return nil
}

// assumptions is a cube's full assumption set.
func (r *solveRun) assumptions(c partition.Cube) ([]cnf.Lit, error) {
	out, err := partition.CubeAssumptions(r.parts[c.From].Assumptions, c.Path, r.opts.SplitLits)
	if err != nil {
		return nil, fmt.Errorf("parallel: %w", err)
	}
	return out, nil
}

// work is one worker goroutine: it drains the tree until nothing is
// outstanding or the run is cancelled, blocking on tree events (and on
// the next split deadline, when one exists) while idle.
func (r *solveRun) work(key string) {
	for r.ctx.Err() == nil {
		h := &slot{}
		n := r.tree.Acquire(key, h, time.Now())
		switch {
		case n.Run != nil:
			r.solve(n.Run)
		case n.Victim != nil:
			if a := r.splitCube(n.Victim, key, h); a != nil {
				r.solve(a)
			}
		case n.Done:
			return
		default:
			cubetree.Wait(n, r.ctx.Done())
		}
	}
}

// splitCube commits the SPLIT record for a reserved victim, then swaps
// the cube for its children and returns the one this worker steals.
// The tree interrupts the victim's solver; its result loses the claim.
func (r *solveRun) splitCube(v *cubetree.Assignment[*slot], key string, h *slot) *cubetree.Assignment[*slot] {
	if r.opts.Journal != nil {
		err := r.opts.Journal.Commit(journal.ChunkRecord{
			From: v.Cube.From, To: v.Cube.To, Path: v.Cube.Path,
			Verdict: journal.VerdictSplit,
		})
		if !r.journaled(err) {
			r.tree.AbortSplit(v)
			return nil
		}
	}
	return r.tree.CompleteSplit(v, key, h, time.Now())
}

// solve runs one assignment and, if it wins the claim, certifies,
// commits and records its result.
func (r *solveRun) solve(a *cubetree.Assignment[*slot]) {
	idx := a.Cube.From
	// A panicking solver instance must not take the process down with
	// it: the panic becomes the run's error and cancels the siblings,
	// so callers (and distributed workers in particular) see a
	// structured failure for one poison partition instead of a crash.
	defer func() {
		if p := recover(); p != nil {
			r.fail(fmt.Errorf("parallel: partition %d solver panicked: %v", idx, p))
		}
	}()
	assume, err := r.assumptions(a.Cube)
	if err != nil {
		r.fail(err)
		return
	}
	var note func(sat.Stats)
	if r.split {
		note = func(st sat.Stats) {
			r.tree.Note(a, sat.Hardness(st.Conflicts, st.Progress, time.Since(a.Started)))
		}
	}
	solver, sampler := r.opts.newInstance(r.f, idx, note)
	a.Handle.attach(solver)
	defer context.AfterFunc(r.memCtx, solver.InterruptMemory)()
	t0 := time.Now()
	status, cause := solver.SolveCtx(r.ctx, r.opts.ChunkTimeout, assume...)
	elapsed := time.Since(t0)
	if !r.tree.Claim(a) {
		return // superseded: the cube was split while it ran
	}
	if status == sat.Unsat && r.opts.CertifyUnsat {
		if cerr := r.checker.Check(assume, solver.ProofLog()); cerr != nil {
			r.mu.Lock()
			r.certFailed = true
			r.mu.Unlock()
		}
	}
	inst := r.opts.instance(idx, solver, sampler, status, cause, elapsed)
	// Commit before acknowledging the verdict in the shared result, so
	// a crash after this point can only lose work the journal already
	// holds — never claim work it lost.
	if !r.journaled(r.opts.commit(inst, a.Cube.Path)) {
		return
	}
	r.mu.Lock()
	r.leaves[idx] = append(r.leaves[idx], inst)
	won := status == sat.Sat && r.res.Status != sat.Sat
	if won {
		r.res.Status = sat.Sat
		r.res.Model = solver.Model()
		r.res.Winner = idx
	}
	r.mu.Unlock()
	if won {
		r.cancel() // terminate the other instances
	}
}

// journaled absorbs a commit error. A sealed journal (disk full, I/O
// error) is not a wrong verdict: the run degrades loudly to
// journal-less operation — the journal rolled the failed record back,
// so a later resume re-solves exactly the unjournalled cubes. Any
// other failure ends the run.
func (r *solveRun) journaled(err error) bool {
	if err == nil {
		return true
	}
	if errors.Is(err, journal.ErrSealed) {
		r.mu.Lock()
		if !r.res.JournalSealed {
			r.res.JournalSealed = true
			r.res.JournalSealCause = err.Error()
		}
		r.mu.Unlock()
		return true
	}
	r.fail(fmt.Errorf("parallel: journal commit failed: %w", err))
	return false
}

// fail records the run's first fatal error and cancels it.
func (r *solveRun) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
	r.cancel()
}

// finish folds every partition's leaves into the result once the
// workers are gone.
func (r *solveRun) finish(ctx context.Context, parts []partition.Partition, wall time.Duration) (*Result, error) {
	// Whatever is still queued was never started and reports cancelled.
	for _, c := range r.tree.Drain() {
		r.leaves[c.From] = append(r.leaves[c.From], InstanceResult{
			Partition: c.From, Status: sat.Unknown, Cause: sat.CauseCancelled,
		})
	}
	res := r.res
	for _, pt := range parts {
		if leaves := r.leaves[pt.Index]; len(leaves) > 0 {
			inst := rootResult(pt.Index, leaves)
			res.Instances = append(res.Instances, inst)
			if inst.Status == sat.Unknown && res.Status == sat.Unsat {
				res.Status = sat.Unknown
			}
		}
	}
	st := r.tree.Stats()
	res.Splits = st.Splits
	res.MaxCubeDepth = max(res.MaxCubeDepth, st.MaxDepth)
	res.Wall = wall
	res.Certified = r.opts.CertifyUnsat && !r.certFailed
	if r.err != nil {
		return nil, r.err
	}
	if r.certFailed {
		return nil, fmt.Errorf("parallel: an UNSAT refutation proof failed to check")
	}
	if res.Status != sat.Sat && ctx.Err() != nil {
		// A winning SAT result outranks cancelled siblings; anything
		// else cut short by the caller is Unknown.
		res.Status = sat.Unknown
	}
	return res, nil
}

// rootResult merges one partition's leaf results into the
// per-partition InstanceResult callers expect: the verdict by the
// cube-tree fold, stats and times summed, hardness the hardest leaf,
// Resumed only when every leaf replayed from the journal. A partition
// solved whole keeps its refutation proof.
func rootResult(idx int, leaves []InstanceResult) InstanceResult {
	out := InstanceResult{Partition: idx, Cubes: len(leaves), Resumed: true}
	v := cubetree.Refuted
	for _, l := range leaves {
		v = cubetree.Fold(v, cubetree.Outcome{Status: l.Status, Cause: l.Cause})
		out.Time += l.Time
		out.Stats.Add(l.Stats)
		out.Hardness = max(out.Hardness, l.Hardness)
		if out.Samples == nil {
			out.Samples = l.Samples
		}
		out.Resumed = out.Resumed && l.Resumed
	}
	out.Status, out.Cause = v.Status, v.Cause
	if len(leaves) == 1 {
		out.Proof = leaves[0].Proof
	}
	return out
}

func statusFromString(s string) sat.Status {
	switch s {
	case sat.Sat.String():
		return sat.Sat
	case sat.Unsat.String():
		return sat.Unsat
	default:
		return sat.Unknown
	}
}
