package parallel

import (
	"context"
	"fmt"
	"slices"
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
	models := make([][]bool, len(parts))
	// Simulate never splits: one replayed leaf per partition, in order.
	replayed := opts.replay(parts, false).Leaves
	var checker *sat.RUPChecker
	if opts.CertifyUnsat {
		checker = sat.NewRUPChecker(f)
	}

	// res.Instances[i] is parts[i]'s result.
	for i, pt := range parts {
		if err := ctx.Err(); err != nil {
			res.Status = sat.Unknown
			return res, nil
		}

		// Resume path: replay the journaled verdict with its recorded
		// solve time, so the makespan simulation still covers the whole
		// partition set. Budget-exhausted records superseded by larger
		// budgets fall through and are re-solved.
		if rec := replayed[i].Record; rec != nil && opts.replayable(*rec, pt.Index) {
			res.Instances = append(res.Instances, resumedInstance(pt.Index, *rec))
			res.Resumed++
			continue
		}

		solver, sampler := opts.newInstance(f, pt.Index, nil)
		t0 := time.Now()
		status, cause := solver.SolveCtx(ctx, opts.ChunkTimeout, pt.Assumptions...)
		inst := opts.instance(pt.Index, solver, sampler, status, cause, time.Since(t0))
		if status == sat.Unsat && opts.CertifyUnsat {
			// Checked outside the timed window: a real deployment would
			// certify offline.
			if cerr := checker.Check(pt.Assumptions, solver.ProofLog()); cerr != nil {
				return nil, fmt.Errorf("parallel: partition %d refutation proof failed: %w", pt.Index, cerr)
			}
		}
		if cerr := opts.commit(inst, ""); cerr != nil {
			return nil, fmt.Errorf("parallel: journal commit failed: %w", cerr)
		}
		res.Instances = append(res.Instances, inst)
		if status == sat.Sat {
			models[i] = solver.Model()
		}
	}

	// Event simulation: greedy assignment in partition order.
	procFree := make([]time.Duration, workers)
	finish := make([]time.Duration, len(parts))
	for i, inst := range res.Instances {
		p := 0
		for j := 1; j < workers; j++ {
			if procFree[j] < procFree[p] {
				p = j
			}
		}
		finish[i] = procFree[p] + inst.Time
		procFree[p] = finish[i]
	}

	// First satisfiable finish wins; otherwise the makespan.
	bestSat := time.Duration(-1)
	bestIdx := -1
	for i, inst := range res.Instances {
		switch {
		case inst.Status == sat.Sat && (bestSat < 0 || finish[i] < bestSat):
			bestSat = finish[i]
			bestIdx = i
		case inst.Status == sat.Unknown:
			// Budget-exhausted or cancelled partitions keep the aggregate
			// from claiming Unsat over an incompletely explored space.
			res.Status = sat.Unknown
		}
	}
	res.Certified = opts.CertifyUnsat
	if bestIdx >= 0 {
		res.Status = sat.Sat
		res.Winner = parts[bestIdx].Index
		// A winner resumed from the journal has no model (none is
		// journaled): re-derive it.
		model := models[bestIdx]
		if model == nil {
			var err error
			if model, err = opts.rederive(f, res.Winner, parts[bestIdx].Assumptions); err != nil {
				return nil, err
			}
		}
		res.Model = model
		res.Wall = bestSat
		return res, nil
	}
	res.Wall = slices.Max(procFree)
	return res, nil
}
