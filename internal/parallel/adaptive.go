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

// solveAdaptive is Solve's straggler-resilient mode: instead of one
// goroutine per partition, Options.Workers goroutines drain a dynamic
// work queue of cubes (a partition plus a path of extra split-bit
// polarities). An idle worker that finds the queue empty interrupts the
// hardest cube that has been solving for at least SplitGrace and
// re-queues its two sub-cubes — the partition.Cube split applied
// in-process, mirroring the distributed coordinator's scheduler.
//
// Soundness: a cube's two children fix the same split literal in both
// polarities on top of the parent's assumptions, so they partition the
// parent's assumption space exactly — both UNSAT refutes the parent,
// any SAT model satisfies it. The SPLIT journal record is committed
// before either child runs, so a crash between split and child
// completion resumes with the children pending and the parent record
// permanently superseded.
type cubeJob struct {
	pt   partition.Partition
	path string
}

// runningCube is one in-flight cube: the solver to interrupt, the
// hardness fed by the live progress hook, and the split mark that tells
// the owning worker to re-queue children instead of reporting a
// cancelled leaf.
type runningCube struct {
	job      cubeJob
	solver   *sat.Solver
	started  time.Time
	hardness float64
	split    bool
}

func solveAdaptive(ctx context.Context, f *cnf.Formula, parts []partition.Partition, opts Options) (*Result, error) {
	grace := opts.SplitGrace
	if grace <= 0 {
		grace = 15 * time.Second
	}
	workers := opts.Workers
	if workers <= 0 || workers > len(parts) {
		workers = len(parts)
	}
	start := time.Now()
	res := &Result{Status: sat.Unsat, Winner: -1}

	// Resume: rebuild each partition's cube tree from the journal.
	// SPLIT records grow the tree; verdict records attach to leaves.
	// A verdict whose path is not a live leaf (its cube was split) is
	// stale and ignored — the children own the verdict now.
	splitSet := map[int]map[string]bool{}
	verdicts := map[int]map[string]journal.ChunkRecord{}
	if opts.Journal != nil {
		for _, rec := range opts.Journal.Committed() {
			if rec.From != rec.To {
				continue
			}
			if rec.Split() {
				if splitSet[rec.From] == nil {
					splitSet[rec.From] = map[string]bool{}
				}
				splitSet[rec.From][rec.Path] = true
			} else {
				if verdicts[rec.From] == nil {
					verdicts[rec.From] = map[string]journal.ChunkRecord{}
				}
				verdicts[rec.From][rec.Path] = rec
			}
		}
	}
	leavesOf := func(idx int) []string {
		var out []string
		var walk func(p string)
		walk = func(p string) {
			if splitSet[idx][p] {
				walk(p + "0")
				walk(p + "1")
				return
			}
			out = append(out, p)
		}
		walk("")
		return out
	}
	cubeAssumptions := func(pt partition.Partition, path string) ([]cnf.Lit, error) {
		if path == "" {
			return pt.Assumptions, nil
		}
		extra, err := partition.PathAssumptions(path, opts.SplitLits)
		if err != nil {
			return nil, err
		}
		out := make([]cnf.Lit, 0, len(pt.Assumptions)+len(extra))
		out = append(out, pt.Assumptions...)
		out = append(out, extra...)
		return out, nil
	}

	// leaves[idx] accumulates one InstanceResult per decided leaf cube;
	// the per-partition fold happens after the run.
	type partState struct {
		leaves []InstanceResult
	}
	state := make(map[int]*partState, len(parts))
	var queue []cubeJob
	outstanding := 0 // queued + running leaves still undecided
	for _, pt := range parts {
		ps := &partState{}
		state[pt.Index] = ps
		for _, path := range leavesOf(pt.Index) {
			if d := len(path); d > res.MaxCubeDepth {
				res.MaxCubeDepth = d
			}
			rec, ok := verdicts[pt.Index][path]
			if !ok || !opts.replayable(rec, pt.Index) {
				queue = append(queue, cubeJob{pt: pt, path: path})
				outstanding++
				continue
			}
			inst := InstanceResult{
				Partition: pt.Index,
				Status:    statusFromString(rec.Verdict),
				Cause:     sat.ParseStopCause(rec.Cause),
				Resumed:   true,
				Time:      time.Duration(rec.Millis) * time.Millisecond,
			}
			ps.leaves = append(ps.leaves, inst)
			res.Resumed++
			if inst.Status == sat.Sat && res.Status != sat.Sat {
				// The journal stores no model; re-derive it under the
				// cube's assumptions, refusing the resume if the journal
				// and formula disagree (as in the non-adaptive path).
				assume, aerr := cubeAssumptions(pt, path)
				if aerr != nil {
					return nil, fmt.Errorf("parallel: %w", aerr)
				}
				solver := sat.NewFromFormula(f, opts.rederiveOptions(pt.Index))
				st, serr := solver.Solve(assume...)
				if serr != nil || st != sat.Sat {
					return nil, fmt.Errorf("parallel: journaled SAT verdict for partition %d cube %q failed to re-derive (status %v, err %v); refusing to resume against a disagreeing journal", pt.Index, path, st, serr)
				}
				res.Status = sat.Sat
				res.Model = solver.Model()
				res.Winner = pt.Index
			}
		}
	}
	if res.Status == sat.Sat {
		// A replayed SAT verdict decides the run; pending cubes are
		// cancelled exactly as if a live sibling had won.
		for _, job := range queue {
			state[job.pt.Index].leaves = append(state[job.pt.Index].leaves, InstanceResult{
				Partition: job.pt.Index, Status: sat.Unknown, Cause: sat.CauseCancelled,
			})
		}
		queue = nil
		outstanding = 0
	}

	var (
		mu         sync.Mutex
		running    = map[*runningCube]bool{}
		journalErr error
		panicErr   error
		certFailed bool
		checker    *sat.RUPChecker // one prepared checker serves every cube's proof
	)
	if opts.CertifyUnsat {
		checker = sat.NewRUPChecker(f)
	}
	solveCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	interruptAll := func(mem bool) {
		mu.Lock()
		for rc := range running {
			if mem {
				rc.solver.InterruptMemory()
			} else {
				rc.solver.Interrupt()
			}
		}
		mu.Unlock()
	}
	go func() {
		<-solveCtx.Done()
		interruptAll(false)
	}()
	var memAborted atomic.Bool
	if opts.MemAbort != nil {
		go func() {
			select {
			case <-opts.MemAbort:
				memAborted.Store(true)
				interruptAll(true)
			case <-solveCtx.Done():
			}
		}()
	}

	sealJournal := func(err error) {
		if !res.JournalSealed {
			res.JournalSealed = true
			res.JournalSealCause = err.Error()
		}
	}
	// splitVictimLocked picks the hardest qualifying straggler: past the
	// grace, at or above the hardness floor, with an unfixed split bit
	// left under both the depth cap and the encoding's supply.
	splitVictimLocked := func(now time.Time) *runningCube {
		var best *runningCube
		for rc := range running {
			if rc.split {
				continue
			}
			if now.Sub(rc.started) < grace {
				continue
			}
			if rc.hardness < opts.SplitHardness {
				continue
			}
			if len(rc.job.path) >= opts.SplitDepth || len(rc.job.path) >= len(opts.SplitLits) {
				continue
			}
			if best == nil || rc.hardness > best.hardness ||
				(rc.hardness == best.hardness && rc.started.Before(best.started)) {
				best = rc
			}
		}
		return best
	}
	// The idle poll tick must notice grace expiry promptly without
	// spinning.
	tick := grace / 4
	if tick > 500*time.Millisecond {
		tick = 500 * time.Millisecond
	}
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}

	runCube := func(job cubeJob) {
		// The panic boundary mirrors Solve's: one poison cube becomes the
		// run's error and cancels the siblings instead of crashing.
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				if panicErr == nil {
					panicErr = fmt.Errorf("parallel: partition %d cube %q solver panicked: %v", job.pt.Index, job.path, r)
				}
				outstanding--
				mu.Unlock()
				cancel()
			}
		}()
		assume, aerr := cubeAssumptions(job.pt, job.path)
		if aerr != nil {
			mu.Lock()
			if panicErr == nil {
				panicErr = fmt.Errorf("parallel: %w", aerr)
			}
			outstanding--
			mu.Unlock()
			cancel()
			return
		}
		sOpts := opts.solverOptions(job.pt.Index)
		if sOpts.ProgressEvery <= 0 {
			// The hardness signal that steers splitting rides on the
			// progress cadence; arm a default when the caller didn't.
			sOpts.ProgressEvery = 512
		}
		solver := sat.NewFromFormula(f, sOpts)
		sampler := sat.NewSampler(0)
		rc := &runningCube{job: job, solver: solver, started: time.Now()}
		solver.Progress = func(st sat.Stats) {
			h := sat.Hardness(st.Conflicts, st.Progress, time.Since(rc.started))
			sampler.Observe(st)
			mu.Lock()
			rc.hardness = h
			mu.Unlock()
			if opts.Progress != nil {
				opts.Progress(job.pt.Index, st)
			}
		}
		if opts.CertifyUnsat || opts.KeepProofs {
			solver.EnableProof()
		}
		mu.Lock()
		running[rc] = true
		mu.Unlock()
		if memAborted.Load() {
			solver.InterruptMemory()
		}
		var timedOut atomic.Bool
		if opts.ChunkTimeout > 0 {
			timer := time.AfterFunc(opts.ChunkTimeout, func() {
				timedOut.Store(true)
				solver.Interrupt()
			})
			defer timer.Stop()
		}

		t0 := time.Now()
		status, err := solver.Solve(assume...)
		elapsed := time.Since(t0)

		mu.Lock()
		delete(running, rc)
		wasSplit := rc.split && err == sat.ErrInterrupted && status == sat.Unknown
		mu.Unlock()
		if wasSplit {
			// The SPLIT record is the supersession point: committed
			// before either child is queued, so a crash here resumes
			// with the children pending, never with a stale parent
			// verdict. A sealed journal degrades to journal-less
			// splitting — a resume simply re-solves the parent.
			if opts.Journal != nil {
				jerr := opts.Journal.Commit(journal.ChunkRecord{
					From: job.pt.Index, To: job.pt.Index, Path: job.path,
					Verdict: journal.VerdictSplit,
				})
				if jerr != nil && errors.Is(jerr, journal.ErrSealed) {
					mu.Lock()
					sealJournal(jerr)
					mu.Unlock()
				} else if jerr != nil {
					mu.Lock()
					if journalErr == nil {
						journalErr = jerr
					}
					outstanding--
					mu.Unlock()
					cancel()
					return
				}
			}
			mu.Lock()
			queue = append(queue, cubeJob{pt: job.pt, path: job.path + "0"},
				cubeJob{pt: job.pt, path: job.path + "1"})
			outstanding++ // one leaf became two
			res.Splits++
			if d := len(job.path) + 1; d > res.MaxCubeDepth {
				res.MaxCubeDepth = d
			}
			mu.Unlock()
			return
		}

		cause := sat.CauseNone
		if err == sat.ErrMemBudget {
			status = sat.Unknown
			cause = sat.CauseMemory
		} else if err == sat.ErrInterrupted {
			status = sat.Unknown
			if timedOut.Load() && solveCtx.Err() == nil {
				cause = sat.CauseTimeout
			} else {
				cause = sat.CauseCancelled
			}
		} else if status == sat.Unknown {
			cause = sat.CauseConflictBudget
		}
		if status == sat.Unsat && opts.CertifyUnsat {
			if cerr := checker.Check(assume, solver.ProofLog()); cerr != nil {
				mu.Lock()
				certFailed = true
				mu.Unlock()
			}
		}
		inst := InstanceResult{
			Partition: job.pt.Index,
			Status:    status,
			Cause:     cause,
			Time:      elapsed,
			Stats:     solver.Stats(),
			Samples:   sampler.Points(),
		}
		inst.Hardness = sat.Hardness(inst.Stats.Conflicts, inst.Stats.Progress, elapsed)
		if cerr := opts.commit(inst, job.path); cerr != nil {
			if errors.Is(cerr, journal.ErrSealed) {
				mu.Lock()
				sealJournal(cerr)
				mu.Unlock()
			} else {
				mu.Lock()
				if journalErr == nil {
					journalErr = cerr
				}
				outstanding--
				mu.Unlock()
				cancel()
				return
			}
		}
		mu.Lock()
		state[job.pt.Index].leaves = append(state[job.pt.Index].leaves, inst)
		outstanding--
		if status == sat.Sat && res.Status != sat.Sat {
			res.Status = sat.Sat
			res.Model = solver.Model()
			res.Winner = job.pt.Index
			mu.Unlock()
			cancel()
			return
		}
		mu.Unlock()
	}

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if solveCtx.Err() != nil {
					// Drain: whatever is still queued was never started
					// and reports cancelled, exactly like the static
					// path's unstarted goroutines.
					for _, job := range queue {
						state[job.pt.Index].leaves = append(state[job.pt.Index].leaves, InstanceResult{
							Partition: job.pt.Index, Status: sat.Unknown, Cause: sat.CauseCancelled,
						})
						outstanding--
					}
					queue = nil
					mu.Unlock()
					return
				}
				if len(queue) > 0 {
					job := queue[0]
					queue = queue[1:]
					mu.Unlock()
					runCube(job)
					continue
				}
				if outstanding == 0 {
					mu.Unlock()
					return
				}
				// Idle with work still in flight: this is the split
				// trigger. Mark the victim and interrupt it; its owner
				// re-queues the two children, which this loop then picks
				// up — work stealing by construction.
				victim := splitVictimLocked(time.Now())
				if victim != nil {
					victim.split = true
					s := victim.solver
					mu.Unlock()
					s.Interrupt()
				} else {
					mu.Unlock()
				}
				select {
				case <-time.After(tick):
				case <-solveCtx.Done():
				}
			}
		}()
	}
	wg.Wait()

	// Fold each partition's leaves into the one per-partition
	// InstanceResult the callers expect: UNSAT iff every leaf refuted,
	// SAT if any found a model, else Unknown under the dominant cause.
	for _, pt := range parts {
		ps := state[pt.Index]
		if ps == nil || len(ps.leaves) == 0 {
			continue
		}
		inst := foldLeaves(pt.Index, ps.leaves)
		res.Instances = append(res.Instances, inst)
		if inst.Status == sat.Unknown && res.Status == sat.Unsat {
			res.Status = sat.Unknown
		}
	}
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
		return res, nil
	}
	if err := ctx.Err(); err != nil {
		res.Status = sat.Unknown
		return res, nil
	}
	return res, nil
}

// foldLeaves merges the leaf-cube results of one partition. Statuses
// compose by the cube-tree argument (children partition the parent's
// assumption space); budgets compose pessimistically — the partition is
// only as decided as its least decided leaf, and an Unknown picks the
// most severe leaf cause (memory > timeout > conflict-budget >
// cancelled). Stats and times sum; hardness is the hardest leaf;
// Resumed holds only when every leaf replayed from the journal.
func foldLeaves(idx int, leaves []InstanceResult) InstanceResult {
	out := InstanceResult{Partition: idx, Status: sat.Unsat, Cubes: len(leaves), Resumed: true}
	for _, l := range leaves {
		out.Time += l.Time
		out.Stats.Add(l.Stats)
		if l.Hardness > out.Hardness {
			out.Hardness = l.Hardness
		}
		if out.Samples == nil {
			out.Samples = l.Samples
		}
		if !l.Resumed {
			out.Resumed = false
		}
		switch l.Status {
		case sat.Sat:
			out.Status = sat.Sat
			out.Cause = sat.CauseNone
		case sat.Unknown:
			if out.Status != sat.Sat {
				out.Status = sat.Unknown
				out.Cause = mergeCause(out.Cause, l.Cause)
			}
		}
	}
	if out.Status != sat.Unknown {
		out.Cause = sat.CauseNone
	}
	return out
}

// mergeCause keeps the more severe of two Unknown causes, in the same
// priority order the distributed worker reports: memory dominates (the
// coordinator's memory retry policy must see it), then timeout, then
// conflict budget, then cancellation.
func mergeCause(a, b sat.StopCause) sat.StopCause {
	rank := func(c sat.StopCause) int {
		switch c {
		case sat.CauseMemory:
			return 4
		case sat.CauseTimeout:
			return 3
		case sat.CauseConflictBudget:
			return 2
		case sat.CauseCancelled:
			return 1
		}
		return 0
	}
	if rank(b) > rank(a) {
		return b
	}
	return a
}
