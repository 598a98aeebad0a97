package sat

import (
	"compress/gzip"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cnf"
)

// fixture is a DIMACS formula written by `parbmc -dimacs` together with
// the verdict and search counters a plain solve of it produces. The
// counters pin the search itself: a change to the solver's data layout
// must leave every one of them unchanged.
type fixture struct {
	file                               string
	want                               Status
	conflicts, decisions, propagations int64
}

var fixtures = []fixture{
	// parbmc -benchmark eliminationstack -unwind 2 -contexts 4 -dimacs
	{"eliminationstack-u2c4.cnf.gz", Unsat, 1384, 3728, 2434727},
	// parbmc -benchmark boundedbuffer -unwind 2 -contexts 6 -dimacs
	{"boundedbuffer-u2c6.cnf.gz", Sat, 415, 934, 767073},
}

func loadFixture(tb testing.TB, name string) *cnf.Formula {
	tb.Helper()
	fh, err := os.Open(filepath.Join("testdata", name))
	if err != nil {
		tb.Fatal(err)
	}
	defer fh.Close()
	zr, err := gzip.NewReader(fh)
	if err != nil {
		tb.Fatal(err)
	}
	f, err := cnf.ReadDimacs(zr)
	if err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
	return f
}

// checkVerdict certifies a finished solve independently of the solver:
// an Unsat verdict by its RUP proof, a Sat verdict by its model.
func checkVerdict(f *cnf.Formula, s *Solver, st Status) error {
	switch st {
	case Unsat:
		return NewRUPChecker(f).Check(nil, s.ProofLog())
	case Sat:
		for i, c := range f.Clauses {
			sat := false
			for _, l := range c {
				sat = sat || s.ModelValue(l)
			}
			if !sat {
				return fmt.Errorf("model falsifies clause %d %v", i, c)
			}
		}
		return nil
	}
	return fmt.Errorf("no verdict: %v", st)
}

// TestFixtureCounters pins the verdict and the exact conflict, decision
// and propagation counts on each fixture, and certifies the verdict.
func TestFixtureCounters(t *testing.T) {
	for _, fx := range fixtures {
		t.Run(fx.file, func(t *testing.T) {
			f := loadFixture(t, fx.file)
			s := NewFromFormula(f, Options{})
			s.EnableProof()
			st, err := s.Solve()
			if err != nil || st != fx.want {
				t.Fatalf("verdict %v, %v; want %v", st, err, fx.want)
			}
			got := s.Stats()
			if got.Conflicts != fx.conflicts || got.Decisions != fx.decisions || got.Propagations != fx.propagations {
				t.Errorf("conflicts/decisions/propagations %d/%d/%d, want %d/%d/%d",
					got.Conflicts, got.Decisions, got.Propagations, fx.conflicts, fx.decisions, fx.propagations)
			}
			if err := checkVerdict(f, s, st); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// checkArena verifies the clause arena against everything that refers
// into it: the clause lists, the watch lists and the reasons.
func (s *Solver) checkArena() error {
	live := map[cref]bool{}
	wasted := 0
	for c := 0; c < len(s.ca); c += clauseWords(s.ca[c]) {
		if s.ca[c]&hdrDeleted != 0 {
			wasted += clauseWords(s.ca[c])
		} else {
			live[cref(c)] = true
		}
	}
	if wasted != s.wasted {
		return fmt.Errorf("arena holds %d deleted words, wasted says %d", wasted, s.wasted)
	}
	listed := map[cref]bool{}
	for i, list := range [][]cref{s.clauses, s.learnts} {
		for _, c := range list {
			if !live[c] || listed[c] {
				return fmt.Errorf("clause list entry %d is dead or listed twice", c)
			}
			if s.isLearnt(c) != (i == 1) {
				return fmt.Errorf("clause %d is in the wrong list", c)
			}
			listed[c] = true
		}
	}
	if len(listed) != len(live) {
		return fmt.Errorf("%d live clauses, %d listed", len(live), len(listed))
	}
	watched := map[cref]int{}
	for p, ws := range s.watches {
		for _, w := range ws {
			if !live[w.cref] {
				return fmt.Errorf("watch list of %v refers to dead clause %d", cnf.Lit(p), w.cref)
			}
			lits := s.lits(w.cref)
			if neg := uint32(p) ^ 1; lits[0] != neg && lits[1] != neg {
				return fmt.Errorf("clause %d in the watch list of %v does not watch %v", w.cref, cnf.Lit(p), cnf.Lit(neg))
			}
			found := false
			for _, l := range lits {
				found = found || l == w.blocker
			}
			if !found {
				return fmt.Errorf("blocker %v is not in clause %d", cnf.Lit(w.blocker), w.cref)
			}
			watched[w.cref]++
		}
	}
	for c := range live {
		if watched[c] != 2 {
			return fmt.Errorf("clause %d has %d watchers, want 2", c, watched[c])
		}
	}
	for i, r := range s.reason {
		if r == crefUndef {
			continue
		}
		if !live[r] {
			return fmt.Errorf("reason of x%d is dead clause %d", i+1, r)
		}
		first := cnf.Lit(s.lits(r)[0])
		if first.Var() != cnf.Var(i+1) || s.valueLit(first) != lTrue {
			return fmt.Errorf("reason of x%d starts with %v, which is not its true literal", i+1, first)
		}
	}
	return nil
}

// A forced reduceDB and compaction in the middle of a solve leave the
// arena consistent, and the solve still ends with a certified verdict.
func TestArenaCompactionMidSolve(t *testing.T) {
	for _, fx := range fixtures {
		t.Run(fx.file, func(t *testing.T) {
			f := loadFixture(t, fx.file)
			s := NewFromFormula(f, Options{MaxConflicts: fx.conflicts / 2})
			s.EnableProof()
			if st, err := s.Solve(); st != Unknown || err != nil {
				t.Fatalf("budgeted solve: %v, %v; want Unknown", st, err)
			}
			if err := s.checkArena(); err != nil {
				t.Fatalf("before reduce: %v", err)
			}
			deleted := s.stats.LearntDeleted
			s.reduceDB()
			if s.stats.LearntDeleted == deleted {
				t.Fatal("reduceDB deleted nothing")
			}
			if err := s.checkArena(); err != nil {
				t.Fatalf("after reduce: %v", err)
			}
			size := len(s.ca)
			s.compact()
			if s.wasted != 0 || len(s.ca) >= size {
				t.Fatalf("compaction left %d wasted words, arena %d → %d", s.wasted, size, len(s.ca))
			}
			if err := s.checkArena(); err != nil {
				t.Fatalf("after compaction: %v", err)
			}
			s.opts.MaxConflicts = 0
			st, err := s.Solve()
			if err != nil || st != fx.want {
				t.Fatalf("verdict %v, %v; want %v", st, err, fx.want)
			}
			if err := s.checkArena(); err != nil {
				t.Fatalf("after solve: %v", err)
			}
			if err := checkVerdict(f, s, st); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// reduceDB compacts the arena by itself once deleted clauses pass a
// fifth of it.
func TestReduceDBCompacts(t *testing.T) {
	s := New(40, Options{})
	for v := cnf.Var(1); v+3 <= 40; v++ {
		s.recordLearnt([]cnf.Lit{cnf.PosLit(v), cnf.NegLit(v + 1), cnf.PosLit(v + 2), cnf.NegLit(v + 3)}, 4)
	}
	s.reduceDB()
	if s.wasted != 0 {
		t.Fatalf("half the arena deleted, yet %d words still wasted", s.wasted)
	}
	if err := s.checkArena(); err != nil {
		t.Fatal(err)
	}
}

// Bumping an original clause must not touch the learnt activities or
// claInc. Before learnt-only bumping, an original clause whose activity
// passed the 1e20 rescale threshold rescaled every learnt clause on each
// of its bumps, until claInc and every learnt activity underflowed to 0.
func TestBumpOriginalClauseKeepsActivities(t *testing.T) {
	s := New(6, Options{})
	s.AddClause(mk(1, false), mk(2, false), mk(3, false))
	s.recordLearnt([]cnf.Lit{mk(4, false), mk(5, false), mk(6, false)}, 3)
	act := s.clauseAct(s.learnts[0])
	s.claInc = 6e19
	for i := 0; i < 20; i++ {
		s.bumpClause(s.clauses[0])
	}
	if s.claInc != 6e19 {
		t.Errorf("claInc %g after bumping an original clause, want 6e19", s.claInc)
	}
	if got := s.clauseAct(s.learnts[0]); got != act {
		t.Errorf("learnt activity %g after bumping an original clause, want %g", got, act)
	}
}

// A variable whose literal does not fit a uint32 is refused without a
// panic or an allocation, and Solve reports it.
func TestTooLargeVariableRejected(t *testing.T) {
	big := cnf.PosLit(cnf.Var(maxVar + 1))
	s := New(3, Options{})
	if s.AddClause(mk(1, false), big) {
		t.Fatal("AddClause accepted a variable beyond the literal cap")
	}
	if s.NumVars() != 3 {
		t.Fatalf("variable set grew to %d", s.NumVars())
	}
	if st, err := s.Solve(); st != Unknown || err != ErrTooLarge {
		t.Fatalf("Solve: %v, %v; want Unknown, ErrTooLarge", st, err)
	}
	if st, cause := New(1, Options{}).SolveCtx(context.Background(), 0, big); st != Unknown || cause != CauseMemory {
		t.Fatalf("SolveCtx with a too-large assumption: %v, %v; want Unknown, memory", st, cause)
	}
	if New(maxVar+1, Options{}).NumVars() != 0 {
		t.Fatal("New grew beyond the literal cap")
	}
}
