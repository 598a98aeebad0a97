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
package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cnf"
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
	// Cubes is the number of leaf cubes adaptive splitting folded into
	// this per-partition result (0: the partition was solved whole).
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
	// cancelled, or were resumed from the journal.
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
	// worker that finds the queue empty interrupts the hardest straggling
	// instance past SplitGrace and splits its cube on the next unfixed
	// literal of SplitLits, re-queueing both halves — up to SplitDepth
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

// instrument arms one solver instance with the live progress hook and
// returns the sampler piggybacked on the same cadence (nil when the
// hook is disarmed — the sampler costs nothing beyond the callbacks
// the caller already asked for).
func (o *Options) instrument(solver *sat.Solver, part int) *sat.Sampler {
	if o.Progress == nil || o.ProgressEvery <= 0 {
		return nil
	}
	sampler := sat.NewSampler(0)
	solver.Progress = func(st sat.Stats) {
		sampler.Observe(st)
		o.Progress(part, st)
	}
	return sampler
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

// rederiveOptions is solverOptions without any conflict or memory
// budget: the journal's SAT verdict is already durable, so the re-solve
// that recovers its model must not be cut short by this run's (possibly
// smaller) budgets — a budget-starved re-solve would otherwise demote
// a committed counterexample to Unknown.
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

// committedRecords indexes the journal's committed set by partition for
// per-partition (From == To) records. Cube-leaf records (non-empty
// Path) and SPLIT markers written by an adaptive run are skipped: a
// sub-cube verdict covers only part of its partition, so a
// non-adaptive resume must re-solve the whole partition rather than
// replay a fragment as if it were the full verdict.
func committedRecords(j *journal.Journal) map[int]journal.ChunkRecord {
	if j == nil {
		return nil
	}
	out := make(map[int]journal.ChunkRecord)
	for _, rec := range j.Committed() {
		if rec.From == rec.To && rec.Path == "" && !rec.Split() {
			out[rec.From] = rec
		}
	}
	return out
}

// commit journals one instance verdict (path is the instance's cube
// path, empty outside adaptive splitting). Definite verdicts and budget
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
func Solve(ctx context.Context, f *cnf.Formula, parts []partition.Partition, opts Options) (*Result, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("parallel: no partitions")
	}
	if opts.SplitDepth > 0 && len(opts.SplitLits) > 0 {
		return solveAdaptive(ctx, f, parts, opts)
	}
	workers := opts.Workers
	if workers <= 0 || workers > len(parts) {
		workers = len(parts)
	}

	start := time.Now()
	res := &Result{Status: sat.Unsat, Winner: -1}

	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)

	// Cancellation: the first SAT result interrupts all live solvers.
	solveCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	committed := committedRecords(opts.Journal)
	var journalErr error
	var panicErr error

	// Resume pass: replay every committed verdict before spawning any
	// solver goroutine, so the shared Result is only ever touched
	// single-threadedly here and under mu once solving starts. Records
	// whose exhausted budget this run raises are dropped back into the
	// to-solve set instead of replayed.
	todo := make([]partition.Partition, 0, len(parts))
	for _, pt := range parts {
		rec, ok := committed[pt.Index]
		if !ok || !opts.replayable(rec, pt.Index) {
			todo = append(todo, pt)
			continue
		}
		inst := InstanceResult{
			Partition: pt.Index,
			Status:    statusFromString(rec.Verdict),
			Cause:     sat.ParseStopCause(rec.Cause),
			Resumed:   true,
			Time:      time.Duration(rec.Millis) * time.Millisecond,
		}
		res.Instances = append(res.Instances, inst)
		res.Resumed++
		switch inst.Status {
		case sat.Sat:
			// The journal stores no model; re-derive it now (without this
			// run's budgets) so the resumed run still produces a decodable
			// counterexample. A committed SAT verdict that does not
			// re-derive means the journal and the formula disagree —
			// refusing the run beats silently reporting UNSAT over a
			// durably recorded counterexample.
			if res.Status != sat.Sat {
				solver := sat.NewFromFormula(f, opts.rederiveOptions(pt.Index))
				st, serr := solver.Solve(pt.Assumptions...)
				if serr != nil || st != sat.Sat {
					return nil, fmt.Errorf("parallel: journaled SAT verdict for partition %d failed to re-derive (status %v, err %v); refusing to resume against a disagreeing journal", pt.Index, st, serr)
				}
				res.Status = sat.Sat
				res.Model = solver.Model()
				res.Winner = pt.Index
			}
		case sat.Unknown:
			if res.Status == sat.Unsat {
				res.Status = sat.Unknown
			}
		}
	}

	// A replayed SAT verdict decides the run: the remaining partitions
	// are cancelled exactly as if a live sibling had won the race.
	if res.Status == sat.Sat {
		for _, pt := range todo {
			res.Instances = append(res.Instances, InstanceResult{
				Partition: pt.Index, Status: sat.Unknown, Cause: sat.CauseCancelled,
			})
		}
		res.Wall = time.Since(start)
		res.Certified = opts.CertifyUnsat
		return res, nil
	}

	var live []*sat.Solver
	certFailed := false
	interruptAll := func() {
		mu.Lock()
		for _, s := range live {
			s.Interrupt()
		}
		mu.Unlock()
	}
	go func() {
		<-solveCtx.Done()
		interruptAll()
	}()

	// External memory kill-switch: once fired, every live solver is
	// aborted with cause=memory, and solvers registered later are
	// aborted on registration (closing the fire/register race).
	var memAborted atomic.Bool
	if opts.MemAbort != nil {
		go func() {
			select {
			case <-opts.MemAbort:
				memAborted.Store(true)
				mu.Lock()
				for _, s := range live {
					s.InterruptMemory()
				}
				mu.Unlock()
			case <-solveCtx.Done():
			}
		}()
	}

	// One prepared checker serves every partition's proof.
	var checker *sat.RUPChecker
	if opts.CertifyUnsat {
		checker = sat.NewRUPChecker(f)
	}
	for _, pt := range todo {
		pt := pt
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A panicking solver instance must not take the process down
			// with it: the panic becomes the run's error and cancels the
			// siblings, so callers (and distributed workers in particular)
			// see a structured failure for one poison partition instead of
			// a crash.
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if panicErr == nil {
						panicErr = fmt.Errorf("parallel: partition %d solver panicked: %v", pt.Index, r)
					}
					mu.Unlock()
					cancel()
				}
			}()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-solveCtx.Done():
				mu.Lock()
				res.Instances = append(res.Instances, InstanceResult{
					Partition: pt.Index, Status: sat.Unknown, Cause: sat.CauseCancelled,
				})
				mu.Unlock()
				return
			}
			if solveCtx.Err() != nil {
				mu.Lock()
				res.Instances = append(res.Instances, InstanceResult{
					Partition: pt.Index, Status: sat.Unknown, Cause: sat.CauseCancelled,
				})
				mu.Unlock()
				return
			}

			solver := sat.NewFromFormula(f, opts.solverOptions(pt.Index))
			sampler := opts.instrument(solver, pt.Index)
			if opts.CertifyUnsat || opts.KeepProofs {
				solver.EnableProof()
			}
			mu.Lock()
			live = append(live, solver)
			mu.Unlock()
			if memAborted.Load() {
				solver.InterruptMemory()
			}

			// Wall-clock budget: a timer interrupt distinguishable from
			// cancellation by the timedOut flag.
			var timedOut atomic.Bool
			if opts.ChunkTimeout > 0 {
				timer := time.AfterFunc(opts.ChunkTimeout, func() {
					timedOut.Store(true)
					solver.Interrupt()
				})
				defer timer.Stop()
			}

			t0 := time.Now()
			status, err := solver.Solve(pt.Assumptions...)
			elapsed := time.Since(t0)
			cause := sat.CauseNone
			if err == sat.ErrMemBudget {
				// Memory exhaustion — the solver's own budget or the
				// external watchdog — is terminal budget exhaustion,
				// journaled like a conflict-budget give-up.
				status = sat.Unknown
				cause = sat.CauseMemory
			} else if err == sat.ErrInterrupted {
				status = sat.Unknown
				// The timer may fire while the solver is being interrupted
				// for cancellation (sibling SAT win or signal); trusting
				// timedOut alone would journal the cancelled instance as a
				// terminal timeout and exclude a still-decidable partition
				// from every future resume. When the races overlap,
				// cancelled — the uncommitted verdict — wins.
				if timedOut.Load() && solveCtx.Err() == nil {
					cause = sat.CauseTimeout
				} else {
					cause = sat.CauseCancelled
				}
			} else if status == sat.Unknown {
				// The solver exhausts MaxConflicts without error: the
				// conflict budget is the only path here.
				cause = sat.CauseConflictBudget
			}
			if status == sat.Unsat && opts.CertifyUnsat {
				if cerr := checker.Check(pt.Assumptions, solver.ProofLog()); cerr != nil {
					mu.Lock()
					certFailed = true
					mu.Unlock()
				}
			}

			inst := InstanceResult{
				Partition: pt.Index,
				Status:    status,
				Cause:     cause,
				Time:      elapsed,
				Stats:     solver.Stats(),
				Samples:   sampler.Points(),
			}
			inst.Hardness = sat.Hardness(inst.Stats.Conflicts, inst.Stats.Progress, elapsed)
			if status == sat.Unsat && opts.KeepProofs {
				inst.Proof = solver.ProofLog()
			}
			// Commit before acknowledging the verdict in the shared
			// result, so a crash after this point can only lose work the
			// journal already holds — never claim work it lost.
			if cerr := opts.commit(inst, ""); cerr != nil {
				if errors.Is(cerr, journal.ErrSealed) {
					// Full disk is not a wrong verdict: degrade loudly to
					// journal-less operation and keep solving. The journal
					// rolled the failed record back, so a later resume
					// re-solves exactly the unjournalled partitions.
					mu.Lock()
					if !res.JournalSealed {
						res.JournalSealed = true
						res.JournalSealCause = cerr.Error()
					}
					mu.Unlock()
				} else {
					mu.Lock()
					if journalErr == nil {
						journalErr = cerr
					}
					mu.Unlock()
					cancel()
					return
				}
			}

			mu.Lock()
			res.Instances = append(res.Instances, inst)
			if status == sat.Sat && res.Status != sat.Sat {
				res.Status = sat.Sat
				res.Model = solver.Model()
				res.Winner = pt.Index
				mu.Unlock()
				cancel() // terminate the other instances
				return
			}
			if status == sat.Unknown && res.Status == sat.Unsat {
				res.Status = sat.Unknown
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.Wall = time.Since(start)
	res.Certified = opts.CertifyUnsat && !certFailed
	if panicErr != nil {
		return nil, panicErr
	}
	if journalErr != nil {
		return nil, fmt.Errorf("parallel: journal commit failed: %w", journalErr)
	}
	if certFailed {
		return nil, fmt.Errorf("parallel: an UNSAT refutation proof failed to check")
	}
	if res.Status == sat.Sat {
		// A winning SAT result outranks cancelled siblings.
		return res, nil
	}
	if err := ctx.Err(); err != nil {
		res.Status = sat.Unknown
		return res, nil
	}
	return res, nil
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
