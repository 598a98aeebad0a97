package cubetree

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/partition"
	"repro/internal/sat"
)

// The property test drives the tree the way an executor does — acquire,
// claim, release, split, abort-split and hedge — in a seeded random
// interleaving over several workers, writing journal records exactly
// where the executors do (SPLIT before CompleteSplit, a verdict only
// after a won Claim). At random points it crashes: the records written
// so far are replayed into a fresh tree, in-flight work is lost, and
// the run continues. Invariants:
//
//   - at most one verdict record ever commits per cube;
//   - a superseded result never commits: no cube holds both a SPLIT and
//     a verdict record, and a cancelled assignment never wins a claim;
//   - when the run ends, every live leaf of the replayed tree holds a
//     verdict, and each root folds to what the leaf oracle says.

const (
	propParts = 8
	propBits  = 2
)

// oracle fixes the outcome of every finest cube (one partition, all
// propBits path bits set): a cube is SAT iff any finest cube under it
// is. Coarse cubes therefore decide exactly what their leaves fold to.
type oracle map[string]bool

func newOracle(rng *rand.Rand) oracle {
	o := oracle{}
	for p := 0; p < propParts; p++ {
		for bits := 0; bits < 1<<propBits; bits++ {
			path := fmt.Sprintf("%0*b", propBits, bits)
			o[fmt.Sprintf("%d/%s", p, path)] = rng.Intn(12) == 0
		}
	}
	return o
}

func (o oracle) verdict(c partition.Cube) sat.Status {
	for p := c.From; p <= c.To; p++ {
		for bits := 0; bits < 1<<propBits; bits++ {
			path := fmt.Sprintf("%0*b", propBits, bits)
			if len(c.Path) <= len(path) && path[:len(c.Path)] == c.Path && o[fmt.Sprintf("%d/%s", p, path)] {
				return sat.Sat
			}
		}
	}
	return sat.Unsat
}

var propRoots = []partition.Cube{{From: 0, To: 1}, {From: 2, To: 5}, {From: 6, To: 6}, {From: 7, To: 7}}

type propRun struct {
	t       *testing.T
	rng     *rand.Rand
	oracle  oracle
	cfg     Config
	now     time.Time
	records []journal.ChunkRecord

	tree      *Tree[int]
	held      map[int]*Assignment[int] // worker -> running assignment
	reserved  map[int]*Assignment[int] // worker -> split victim it reserved
	cancelled map[*Assignment[int]]bool
	crashes   int
}

// start builds a fresh tree from the records written so far: the
// crash-and-resume path.
func (r *propRun) start() {
	r.cancelled = map[*Assignment[int]]bool{}
	r.tree = New(r.cfg, func(a *Assignment[int]) { r.cancelled[a] = true })
	r.held = map[int]*Assignment[int]{}
	r.reserved = map[int]*Assignment[int]{}
	for _, l := range Replay(propRoots, r.records).Leaves {
		if l.Record == nil {
			r.tree.Enqueue(l.Cube)
		}
	}
}

func cubeOf(rec journal.ChunkRecord) partition.Cube {
	return partition.Cube{From: rec.From, To: rec.To, Path: rec.Path}
}

// commit appends a record after checking it cannot duplicate or
// contradict the journal.
func (r *propRun) commit(rec journal.ChunkRecord) {
	c := cubeOf(rec)
	for _, old := range r.records {
		if cubeOf(old) == c {
			r.t.Fatalf("commit %+v: cube %v already has %+v", rec, c, old)
		}
	}
	r.records = append(r.records, rec)
}

func (r *propRun) crash() {
	r.crashes++
	r.start()
}

// step performs one random action; it reports false once the run is
// over.
func (r *propRun) step(workers int) bool {
	r.now = r.now.Add(time.Duration(r.rng.Intn(6)) * time.Millisecond)
	if r.crashes < 8 && r.rng.Intn(50) == 0 {
		r.crash()
		return true
	}
	w := r.rng.Intn(workers)
	switch {
	case r.reserved[w] != nil:
		v := r.reserved[w]
		delete(r.reserved, w)
		if r.rng.Intn(10) == 0 {
			// The SPLIT commit failed: the run ends, and resumes.
			r.tree.AbortSplit(v)
			r.crash()
			return true
		}
		r.commit(journal.ChunkRecord{From: v.Cube.From, To: v.Cube.To, Path: v.Cube.Path, Verdict: journal.VerdictSplit})
		r.held[w] = r.tree.CompleteSplit(v, fmt.Sprint(w), w, r.now)
	case r.held[w] != nil:
		a := r.held[w]
		delete(r.held, w)
		if r.rng.Intn(5) == 0 {
			// A transport failure: the attempt is retried elsewhere.
			if r.tree.Release(a) {
				r.tree.Requeue(a.Cube)
			}
			return true
		}
		wasCancelled := r.cancelled[a]
		if !r.tree.Claim(a) {
			return true // superseded: discarded, never journaled
		}
		if wasCancelled {
			r.t.Fatalf("cancelled assignment %d (%v) won its claim", a.ID, a.Cube)
		}
		r.commit(journal.ChunkRecord{From: a.Cube.From, To: a.Cube.To, Path: a.Cube.Path,
			Verdict: r.oracle.verdict(a.Cube).String()})
	default:
		n := r.tree.Acquire(fmt.Sprint(w), w, r.now)
		switch {
		case n.Run != nil:
			r.held[w] = n.Run
		case n.Victim != nil:
			r.reserved[w] = n.Victim
		case n.Done:
			return len(r.held) > 0 || len(r.reserved) > 0
		}
	}
	return true
}

// check verifies the finished run against the oracle.
func (r *propRun) check() {
	rep := Replay(propRoots, r.records)
	byRoot := map[partition.Cube]Outcome{}
	for _, l := range rep.Leaves {
		if l.Record == nil {
			r.t.Fatalf("leaf %v has no verdict after the run", l.Cube)
		}
		root := rootOf(l.Cube)
		acc, ok := byRoot[root]
		if !ok {
			acc = Refuted
		}
		byRoot[root] = Fold(acc, Outcome{Status: statusOf(l.Record.Verdict)})
	}
	for _, root := range propRoots {
		if got, want := byRoot[root].Status, r.oracle.verdict(root); got != want {
			r.t.Fatalf("root %v folds to %v, oracle says %v (records %+v)", root, got, want, r.records)
		}
	}
}

func rootOf(c partition.Cube) partition.Cube {
	for _, r := range propRoots {
		if c.From >= r.From && c.To <= r.To {
			return r
		}
	}
	panic(fmt.Sprintf("cube %v outside every root", c))
}

func statusOf(v string) sat.Status {
	switch v {
	case sat.Sat.String():
		return sat.Sat
	case sat.Unsat.String():
		return sat.Unsat
	}
	return sat.Unknown
}

func TestPropertyInterleavingsCrashReplay(t *testing.T) {
	splits, hedges, crashes := 0, 0, 0
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := &propRun{
			t: t, rng: rng, oracle: newOracle(rng), now: t0,
			cfg: Config{SplitDepth: propBits, SplitBits: propBits, SplitGrace: 4 * time.Millisecond, Hedge: seed%2 == 0},
		}
		r.start()
		workers := 2 + rng.Intn(3)
		steps := 0
		for r.step(workers) {
			if steps++; steps > 20000 {
				t.Fatalf("seed %d: run did not finish (outstanding %d)", seed, r.tree.Outstanding())
			}
		}
		r.check()
		st := r.tree.Stats()
		splits += st.Splits
		hedges += st.Hedges
		crashes += r.crashes
	}
	t.Logf("splits %d hedges %d crashes %d", splits, hedges, crashes)
	// The interleavings must actually exercise the interesting paths.
	if splits == 0 || hedges == 0 || crashes == 0 {
		t.Fatalf("vacuous run: splits %d hedges %d crashes %d", splits, hedges, crashes)
	}
}
