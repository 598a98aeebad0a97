package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/flatten"
	"repro/internal/journal"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/sat"
	"repro/internal/trace"
	"repro/internal/unfold"
	"repro/internal/vc"
	"repro/prog"
)

// sample holds per-layer figures of one traced unit (or of the probe),
// keyed by metric name. Times are in seconds; values of a unit's tasks
// add up.
type sample map[string]float64

// since adds the time elapsed from start to the named metric.
func (s sample) since(name string, start time.Time) {
	s[name] += time.Since(start).Seconds()
}

// ratio stores num/den when den is positive.
func (s sample) ratio(name string, num, den float64) {
	if den > 0 {
		s[name] = num / den
	}
}

// coveredLayers are the top-level layer timers of a traced unit: they
// do not nest, so their sum is the part of the unit's wall time the
// breakdown accounts for.
var coveredLayers = []string{
	"unfold.busy_s", "flatten.busy_s", "vc.busy_s", "partition.busy_s",
	"sat.busy_s", "trace.busy_s", "parallel.wall_s", "distrib.wall_s",
}

// encode runs the front half of the pipeline layer by layer, as
// core.Verify does, timing each call.
func encode(s sample, p *prog.Program, t task) (*vc.Encoded, []partition.Partition, error) {
	start := time.Now()
	up, err := unfold.Unfold(p, unfold.Options{Unwind: t.unwind})
	s.since("unfold.busy_s", start)
	if err != nil {
		return nil, nil, fmt.Errorf("unfold: %w", err)
	}
	start = time.Now()
	fp, err := flatten.Flatten(up)
	s.since("flatten.busy_s", start)
	if err != nil {
		return nil, nil, fmt.Errorf("flatten: %w", err)
	}
	s["flatten.steps"] += float64(fp.NumSteps())
	start = time.Now()
	enc, err := vc.Encode(fp, vc.Options{Width: width, Contexts: t.contexts})
	s.since("vc.busy_s", start)
	if err != nil {
		return nil, nil, fmt.Errorf("encode: %w", err)
	}
	s["vc.vars"] += float64(enc.Formula().NumVars)
	s["vc.clauses"] += float64(enc.Formula().NumClauses())
	start = time.Now()
	n := t.partitions
	if max := partition.MaxPartitions(enc); n > max {
		n = max
	}
	parts, err := partition.Make(enc, n)
	s.since("partition.busy_s", start)
	if err != nil {
		return nil, nil, fmt.Errorf("partition: %w", err)
	}
	s["partition.count"] += float64(len(parts))
	return enc, parts, nil
}

// searchStats records the solver's search counters.
func searchStats(s sample, st sat.Stats) {
	s["sat.conflicts"] += float64(st.Conflicts)
	s["sat.decisions"] += float64(st.Decisions)
	s["sat.propagations"] += float64(st.Propagations)
	s["sat.learnt"] += float64(st.Learnt)
	s["sat.learnt_deleted"] += float64(st.LearntDeleted)
}

// finishSearch derives the search rates once a sample is complete.
func finishSearch(s sample) {
	s.ratio("sat.props_per_s", s["sat.propagations"], s["sat.busy_s"])
	s.ratio("sat.learnt_deleted_frac", s["sat.learnt_deleted"], s["sat.learnt"])
	delete(s, "sat.learnt")
	delete(s, "sat.learnt_deleted")
}

// traced runs one task through the same layers core.Verify (or
// distrib.Coordinate) would use, timing every call. It returns the
// task's counters and the oracle's verdict on its result.
func traced(ctx context.Context, s sample, e *env, t task, run int) (counters, error) {
	p := e.programs[t.name]
	if t.distributed() {
		return tracedDistributed(ctx, s, e, t, run)
	}
	enc, parts, err := encode(s, p, t)
	if err != nil {
		return counters{}, err
	}
	f := enc.Formula()
	if len(parts) > 1 {
		return tracedParallel(ctx, s, t, f, parts)
	}

	// A single partition on one core: core.Verify's parallel layer
	// reduces to one solver instance, so it is called directly.
	start := time.Now()
	solver := sat.NewFromFormula(f, sat.Options{})
	status, err := solver.Solve(parts[0].Assumptions...)
	s.since("sat.busy_s", start)
	if err != nil {
		return counters{}, fmt.Errorf("%s: solve: %w", t.name, err)
	}
	st := solver.Stats()
	searchStats(s, st)
	c := statsCounters(st)
	verdict := map[sat.Status]core.Verdict{sat.Sat: core.Unsafe, sat.Unsat: core.Safe}[status]
	if verdict != t.want {
		return c, fmt.Errorf("%s: verdict %v, want %v", t.name, verdict, t.want)
	}
	if status != sat.Sat {
		return c, nil
	}
	start = time.Now()
	tr := trace.Decode(enc, solver.Model())
	viol, err := trace.Validate(enc, tr)
	s.since("trace.busy_s", start)
	s["trace.steps"] += float64(len(tr.Schedule))
	switch {
	case err != nil:
		return c, fmt.Errorf("%s: counterexample replay: %w", t.name, err)
	case viol == nil:
		return c, fmt.Errorf("%s: counterexample does not replay to a violation", t.name)
	}
	return c, nil
}

// tracedParallel runs the partitions through parallel.Solve with RUP
// certification, as core.Verify does for cert-local.
func tracedParallel(ctx context.Context, s sample, t task, f *cnf.Formula, parts []partition.Partition) (counters, error) {
	start := time.Now()
	res, err := parallel.Solve(ctx, f, parts, parallel.Options{Workers: t.cores, CertifyUnsat: t.certify})
	s.since("parallel.wall_s", start)
	if err != nil {
		return counters{}, fmt.Errorf("%s: parallel solve: %w", t.name, err)
	}
	var c counters
	var busy, max time.Duration
	for _, inst := range res.Instances {
		busy += inst.Time
		if inst.Time > max {
			max = inst.Time
		}
		c.add(statsCounters(inst.Stats))
	}
	s["parallel.busy_s"] = busy.Seconds()
	s["parallel.max_part_s"] = max.Seconds()
	s.ratio("parallel.util", busy.Seconds(), s["parallel.wall_s"]*float64(t.cores))
	s.ratio("parallel.imbalance", max.Seconds()*float64(len(res.Instances)), busy.Seconds())
	switch {
	case res.Status != sat.Unsat:
		return c, fmt.Errorf("%s: status %v, want UNSAT", t.name, res.Status)
	case t.certify && !res.Certified:
		return c, fmt.Errorf("%s: verdict not certified", t.name)
	}
	return c, nil
}

// tracedDistributed runs one distributed verification behind a
// byte-counting listener.
func tracedDistributed(ctx context.Context, s sample, e *env, t task, run int) (counters, error) {
	ln, err := e.listener()
	if err != nil {
		return counters{}, err
	}
	cl := &countingListener{Listener: ln}
	path := e.journalPath(run)
	start := time.Now()
	res, err := coordinate(ctx, cl, e.programs[t.name], t, path)
	s.since("distrib.wall_s", start)
	if err != nil {
		return counters{}, err
	}
	s["distrib.jobs"] = float64(res.Jobs)
	s["distrib.reassigned"] = float64(res.Reassigned)
	s["distrib.certified"] = float64(res.Certified)
	s["distrib.worker_solve_s"] = float64(res.SolveMillis) / 1e3
	s["distrib.coord_certify_s"] = float64(res.CertifyMillis) / 1e3
	s["wire.bytes_in"] = float64(cl.in.Load())
	s["wire.bytes_out"] = float64(cl.out.Load())
	s["wire.conns"] = float64(cl.conns.Load())
	return statsCounters(res.RemoteStats), checkDistributed(t, res)
}

// replayJournal commits the records of a distributed run's journal at
// path into a fresh journal through journal.Open/Commit, timing each
// commit (an fsync'd append, as in the run).
func replayJournal(s sample, path string) error {
	m, recs, err := journal.Read(path)
	if err != nil {
		return fmt.Errorf("read journal: %w", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	s["journal.bytes"] = float64(fi.Size())
	s["journal.commits"] = float64(len(recs))
	replica := filepath.Join(filepath.Dir(path), "replay-"+filepath.Base(path))
	j, err := journal.Open(replica, m)
	if err != nil {
		return fmt.Errorf("open journal: %w", err)
	}
	defer os.Remove(replica)
	defer j.Close()
	times := make([]float64, 0, len(recs))
	for _, rec := range recs {
		start := time.Now()
		if err := j.Commit(rec); err != nil {
			return fmt.Errorf("commit: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	if len(times) > 0 {
		s["journal.commit_s"] = median(times)
	}
	return nil
}

// probe decomposes a certified task's solve partition by partition into
// plain search, proof-logged search and the RUP check of the proof, so
// the three costs that core.Verify interleaves are told apart. On a
// distributed task it also times the front half (unfold to partition)
// that every worker job repeats.
func probe(s sample, p *prog.Program, t task) error {
	front := s
	if !t.distributed() {
		front = sample{} // a local unit times its own front half
	}
	enc, parts, err := encode(front, p, t)
	if err != nil {
		return err
	}
	f := enc.Formula()
	for _, pt := range parts {
		start := time.Now()
		plain := sat.NewFromFormula(f, sat.Options{})
		status, err := plain.Solve(pt.Assumptions...)
		s.since("sat.busy_s", start)
		if err != nil || status != sat.Unsat {
			return fmt.Errorf("%s: partition %d: plain solve %v (%v), want UNSAT", t.name, pt.Index, status, err)
		}
		searchStats(s, plain.Stats())

		start = time.Now()
		logged := sat.NewFromFormula(f, sat.Options{})
		logged.EnableProof()
		status, err = logged.Solve(pt.Assumptions...)
		s.since("proof.busy_s", start)
		if err != nil || status != sat.Unsat {
			return fmt.Errorf("%s: partition %d: proof-logged solve %v (%v), want UNSAT", t.name, pt.Index, status, err)
		}
		proof := logged.ProofLog()
		s["proof.lemmas"] += float64(proof.NumLemmas())
		s["proof.lits"] += float64(proof.NumLits())
		var size byteCounter
		if err := sat.WriteDRAT(&size, proof); err != nil {
			return fmt.Errorf("write DRAT: %w", err)
		}
		s["proof.drat_bytes"] += float64(size)

		start = time.Now()
		err = sat.CheckRUP(f, pt.Assumptions, proof)
		s.since("rup.busy_s", start)
		if err != nil {
			return fmt.Errorf("%s: partition %d: RUP check: %w", t.name, pt.Index, err)
		}
	}
	s["proof.overhead_s"] = s["proof.busy_s"] - s["sat.busy_s"]
	s.ratio("rup.per_solve", s["rup.busy_s"], s["sat.busy_s"])
	finishSearch(s)
	return nil
}

// byteCounter is an io.Writer that only counts.
type byteCounter int64

func (b *byteCounter) Write(p []byte) (int, error) {
	*b += byteCounter(len(p))
	return len(p), nil
}

func statsCounters(st sat.Stats) counters {
	return counters{st.Conflicts, st.Decisions, st.Propagations}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
