package parallel

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/cnf"
	"repro/internal/partition"
	"repro/internal/sat"
)

// Simulate performs the same analysis as Solve but computes the
// parallel wall-clock time deterministically instead of measuring it:
// every partition is solved sequentially (so the measured per-instance
// times are contention-free), and the k-core wall time is obtained by
// event simulation — partitions are assigned in order to the
// earliest-free processor, and the run ends at the earliest finish time
// of a satisfiable instance (first SAT wins, as in Solve) or at the
// makespan when all instances are unsatisfiable.
//
// The simulation is exact for this technique because the solver
// instances do not cooperate (the paper stresses this property: no
// clause exchange, communication only upon termination), so per-instance
// solving times are independent of co-scheduling. It is the tool used to
// reproduce the paper's speedup tables on hosts with fewer physical
// cores than the simulated machine — mirroring the paper's own protocol,
// which simulated a 128-core cluster by running 8-core chunks one after
// another and taking the maximum time.
func Simulate(ctx context.Context, f *cnf.Formula, parts []partition.Partition, opts Options) (*Result, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("parallel: no partitions")
	}
	workers := opts.Workers
	if workers <= 0 || workers > len(parts) {
		workers = len(parts)
	}

	res := &Result{Status: sat.Unsat, Winner: -1}
	times := make([]time.Duration, len(parts))
	statuses := make([]sat.Status, len(parts))
	var winnerModel []bool
	committed := committedRecords(opts.Journal)
	anyUnknown := false
	var checker *sat.RUPChecker
	if opts.CertifyUnsat {
		checker = sat.NewRUPChecker(f)
	}

	for i, pt := range parts {
		if err := ctx.Err(); err != nil {
			res.Status = sat.Unknown
			return res, nil
		}

		// Resume path: replay the journaled verdict with its recorded
		// solve time, so the makespan simulation still covers the whole
		// partition set. Budget-exhausted records superseded by larger
		// budgets fall through and are re-solved.
		if rec, ok := committed[pt.Index]; ok && opts.replayable(rec, pt.Index) {
			inst := InstanceResult{
				Partition: pt.Index,
				Status:    statusFromString(rec.Verdict),
				Cause:     sat.ParseStopCause(rec.Cause),
				Resumed:   true,
				Time:      time.Duration(rec.Millis) * time.Millisecond,
			}
			times[i] = inst.Time
			statuses[i] = inst.Status
			res.Instances = append(res.Instances, inst)
			res.Resumed++
			if inst.Status == sat.Unknown {
				anyUnknown = true
			}
			continue
		}

		solver := sat.NewFromFormula(f, opts.solverOptions(pt.Index))
		opts.instrument(solver, pt.Index)
		if opts.CertifyUnsat || opts.KeepProofs {
			solver.EnableProof()
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
		status, err := solver.Solve(pt.Assumptions...)
		times[i] = time.Since(t0)
		cause := sat.CauseNone
		if err == sat.ErrMemBudget {
			status = sat.Unknown
			cause = sat.CauseMemory
		} else if err == sat.ErrInterrupted {
			status = sat.Unknown
			if timedOut.Load() {
				cause = sat.CauseTimeout
			} else {
				cause = sat.CauseCancelled
			}
		} else if err != nil {
			return nil, err
		} else if status == sat.Unknown {
			cause = sat.CauseConflictBudget
		}
		if status == sat.Unsat && opts.CertifyUnsat {
			// Checked outside the timed window: a real deployment would
			// certify offline.
			if cerr := checker.Check(pt.Assumptions, solver.ProofLog()); cerr != nil {
				return nil, fmt.Errorf("parallel: partition %d refutation proof failed: %w", pt.Index, cerr)
			}
		}
		statuses[i] = status
		if status == sat.Unknown {
			anyUnknown = true
		}
		inst := InstanceResult{
			Partition: pt.Index,
			Status:    status,
			Cause:     cause,
			Time:      times[i],
			Stats:     solver.Stats(),
		}
		if status == sat.Unsat && opts.KeepProofs {
			inst.Proof = solver.ProofLog()
		}
		if cerr := opts.commit(inst, ""); cerr != nil {
			return nil, fmt.Errorf("parallel: journal commit failed: %w", cerr)
		}
		res.Instances = append(res.Instances, inst)
		if status == sat.Sat && winnerModel == nil {
			winnerModel = solver.Model()
		}
	}

	// Event simulation: greedy assignment in partition order.
	procFree := make([]time.Duration, workers)
	finish := make([]time.Duration, len(parts))
	for i := range parts {
		p := 0
		for j := 1; j < workers; j++ {
			if procFree[j] < procFree[p] {
				p = j
			}
		}
		finish[i] = procFree[p] + times[i]
		procFree[p] = finish[i]
	}

	// First satisfiable finish wins; otherwise the makespan.
	bestSat := time.Duration(-1)
	bestIdx := -1
	for i, st := range statuses {
		if st == sat.Sat && (bestSat < 0 || finish[i] < bestSat) {
			bestSat = finish[i]
			bestIdx = i
		}
	}
	res.Certified = opts.CertifyUnsat
	if bestIdx >= 0 {
		res.Status = sat.Sat
		res.Winner = parts[bestIdx].Index
		// Re-solve the winning partition for its model if it was not the
		// first SAT instance encountered sequentially, or if the winner
		// was resumed from the journal (no model is journaled). The
		// re-solve runs without budgets, and a SAT verdict that fails to
		// re-derive is an inconsistency, not something to paper over.
		if winnerModel == nil || parts[bestIdx].Index != firstSatIndex(parts, statuses) {
			solver := sat.NewFromFormula(f, opts.rederiveOptions(parts[bestIdx].Index))
			st, err := solver.Solve(parts[bestIdx].Assumptions...)
			if err != nil || st != sat.Sat {
				return nil, fmt.Errorf("parallel: SAT verdict for partition %d failed to re-derive its model (status %v, err %v)", parts[bestIdx].Index, st, err)
			}
			winnerModel = solver.Model()
		}
		res.Model = winnerModel
		res.Wall = bestSat
		return res, nil
	}
	if anyUnknown {
		// Budget-exhausted or cancelled partitions keep the aggregate
		// from claiming Unsat over an incompletely explored space.
		res.Status = sat.Unknown
	}
	for _, t := range procFree {
		if t > res.Wall {
			res.Wall = t
		}
	}
	return res, nil
}

func firstSatIndex(parts []partition.Partition, statuses []sat.Status) int {
	for i, st := range statuses {
		if st == sat.Sat {
			return parts[i].Index
		}
	}
	return -1
}
