package sat

import (
	"fmt"

	"repro/internal/cnf"
)

// Proof is a clausal (DRUP-style) refutation: the sequence of learnt
// clauses in derivation order. Each clause is a reverse-unit-propagation
// (RUP) consequence of the original formula plus the preceding lemmas,
// and the sequence ends in a state where unit propagation alone derives
// the empty clause. Checking a proof certifies an UNSAT verdict
// independently of the CDCL search that produced it — the counterpart
// of replay-validating SAT counterexamples on the interpreter.
type Proof struct {
	// Lemmas are the derived clauses, in order. An empty clause may
	// appear implicitly: the proof is complete when propagation of the
	// formula, the assumptions, and the lemmas conflicts.
	Lemmas []cnf.Clause
}

// EnableProof turns on proof recording; must be called before Solve.
func (s *Solver) EnableProof() {
	s.proof = &Proof{}
}

// ProofLog returns the recorded proof (nil unless EnableProof was
// called).
func (s *Solver) ProofLog() *Proof { return s.proof }

// CheckRUP verifies the proof against the original formula and the
// assumption literals under which UNSAT was reported. It checks that
// every lemma is a RUP consequence of what precedes it and that the
// accumulated clause set propagates to a conflict, i.e. derives the
// empty clause. Callers checking several proofs against one formula
// should prepare a RUPChecker once instead.
func CheckRUP(f *cnf.Formula, assumptions []cnf.Lit, p *Proof) error {
	return NewRUPChecker(f).Check(assumptions, p)
}

// RUPChecker is a formula prepared once for forward RUP checking. Its
// clauses are normalised into one flat literal arena and a unit list,
// so a Check only copies the arena and lays out watch lists. It is
// immutable after NewRUPChecker: concurrent Checks are safe, and each
// builds its own engine that it drops on return.
type RUPChecker struct {
	numVars int
	lits    []cnf.Lit // normalised clauses of two or more literals, back to back
	starts  []int32   // clause i is lits[starts[i]:starts[i+1]]
	units   []cnf.Lit
	watched []int32 // per literal p: clauses that watch ¬p initially
	empty   bool    // the formula contains the empty clause
	err     error   // why the formula cannot be checked, if it cannot
}

// NewRUPChecker normalises f's clauses for checking: literals sorted,
// duplicates collapsed (so the checker propagates at least as strongly
// as the solver, which normalises on AddClause), tautologies dropped.
func NewRUPChecker(f *cnf.Formula) *RUPChecker {
	c := &RUPChecker{numVars: f.NumVars}
	total := 0
	for _, cl := range f.Clauses {
		total += len(cl)
		for _, l := range cl {
			if l.Var() < 1 {
				c.err = fmt.Errorf("sat: formula literal %d has no variable", int(l))
				return c
			}
			c.numVars = max(c.numVars, int(l.Var()))
		}
	}
	if c.numVars > rupMaxVars {
		c.err = fmt.Errorf("sat: formula has %d variables, the checker takes at most %d", c.numVars, rupMaxVars)
		return c
	}
	c.lits = make([]cnf.Lit, 0, total)
	c.starts = make([]int32, 1, len(f.Clauses)+1)
	for _, cl := range f.Clauses {
		base := len(c.lits)
		nc, taut := cnf.Clause(append(c.lits, cl...)[base:]).Normalize()
		switch {
		case taut:
		case len(nc) == 0:
			c.empty = true
		case len(nc) == 1:
			c.units = append(c.units, nc[0])
		default:
			c.lits = c.lits[:base+len(nc)]
			c.starts = append(c.starts, int32(len(c.lits)))
		}
	}
	c.watched = make([]int32, 2*(c.numVars+1))
	for _, s := range c.starts[:len(c.starts)-1] {
		c.watched[c.lits[s].Not()]++
		c.watched[c.lits[s+1].Not()]++
	}
	return c
}

// Check verifies p under the given assumptions. Root units persist:
// formula units, assumptions and whatever lemmas propagate at the root
// stay assigned for the rest of the proof. Any assumption or lemma
// literal outside the formula's variables is an error, never a panic,
// since proofs may come from untrusted workers.
func (c *RUPChecker) Check(assumptions []cnf.Lit, p *Proof) error {
	if c.err != nil {
		return c.err
	}
	var lemmas []cnf.Clause
	if p != nil {
		lemmas = p.Lemmas
	}
	if err := c.inRange(assumptions, lemmas); err != nil {
		return err
	}
	if c.empty {
		return nil
	}
	s := c.newState(lemmas)
	if !s.assume(c.units) || !s.assume(assumptions) || !s.propagate() {
		return nil // the formula plus assumptions is already conflicting
	}
	s.root = len(s.trail)
	for i, raw := range lemmas {
		lemma, taut := s.push(raw)
		if taut {
			s.lits = s.lits[:s.starts[len(s.starts)-1]]
			continue // trivially valid, and useless for propagation
		}
		if !s.implied(lemma) {
			return fmt.Errorf("sat: lemma %d of %d is not a RUP consequence: %v",
				i+1, len(lemmas), raw)
		}
		if s.add(lemma) {
			return nil // empty clause derived
		}
	}
	return fmt.Errorf("sat: proof does not derive the empty clause (%d lemmas)", len(lemmas))
}

// inRange rejects literals whose variable lies outside 1..numVars.
func (c *RUPChecker) inRange(assumptions []cnf.Lit, lemmas []cnf.Clause) error {
	limit := cnf.Lit(len(c.watched))
	for _, l := range assumptions {
		if l < 2 || l >= limit {
			return fmt.Errorf("sat: assumption literal %d: variable %d outside 1..%d",
				int(l), l.Var(), c.numVars)
		}
	}
	for i, lemma := range lemmas {
		for _, l := range lemma {
			if l < 2 || l >= limit {
				return fmt.Errorf("sat: lemma %d of %d: literal %d: variable %d outside 1..%d",
					i+1, len(lemmas), int(l), l.Var(), c.numVars)
			}
		}
	}
	return nil
}

// rupWatch is a watch-list entry: a clause and a literal of it whose
// truth lets propagation skip the clause without touching the arena.
// The blocker is a cnf.Lit narrowed to 32 bits (NewRUPChecker bounds
// the variable count): against a full-width literal this halves the
// slab, which is most of a check's memory, and makes it faster.
type rupWatch struct {
	clause  int32
	blocker int32
}

// rupMaxVars bounds the variables a checked formula may have, so that
// every literal fits a rupWatch blocker.
const rupMaxVars = 1<<30 - 1

// rupWatchSlack is the spare room each literal's watch list gets in the
// shared slab beyond its initial watches; a list that outgrows it is
// reallocated on its own.
const rupWatchSlack = 2

// rupState is one Check's decision-free propagation engine with undo
// to the persistent root.
type rupState struct {
	lits    []cnf.Lit
	starts  []int32
	watches [][]rupWatch // per literal p: clauses watching ¬p
	vals    []int8       // per literal: lTrue/lFalse/lUndef
	trail   []cnf.Lit
	qhead   int
	root    int // trail prefix that persists across lemma checks
}

// newState copies the prepared arena, with room for every lemma, and
// carves the watch lists out of one slab.
func (c *RUPChecker) newState(lemmas []cnf.Clause) *rupState {
	extra := 0
	for _, l := range lemmas {
		extra += len(l)
	}
	s := &rupState{
		lits:    append(make([]cnf.Lit, 0, len(c.lits)+extra), c.lits...),
		starts:  append(make([]int32, 0, len(c.starts)+len(lemmas)), c.starts...),
		watches: make([][]rupWatch, len(c.watched)),
		vals:    make([]int8, len(c.watched)),
		trail:   make([]cnf.Lit, 0, c.numVars),
	}
	size := 0
	for _, n := range c.watched {
		size += int(n) + rupWatchSlack
	}
	slab := make([]rupWatch, size)
	off := 0
	for p, n := range c.watched {
		end := off + int(n) + rupWatchSlack
		s.watches[p] = slab[off:off:end]
		off = end
	}
	for i := range c.starts[:len(c.starts)-1] {
		s.watch(int32(i))
	}
	return s
}

// watch registers clause ci on its first two literals.
func (s *rupState) watch(ci int32) {
	c := s.lits[s.starts[ci]:]
	p, q := c[0].Not(), c[1].Not()
	s.watches[p] = append(s.watches[p], rupWatch{ci, int32(c[1])})
	s.watches[q] = append(s.watches[q], rupWatch{ci, int32(c[0])})
}

func (s *rupState) assign(l cnf.Lit) {
	s.vals[l] = lTrue
	s.vals[l.Not()] = lFalse
	s.trail = append(s.trail, l)
}

// assume asserts the literals; it returns false on a contradiction.
func (s *rupState) assume(lits []cnf.Lit) bool {
	for _, l := range lits {
		switch s.vals[l] {
		case lFalse:
			return false
		case lUndef:
			s.assign(l)
		}
	}
	return true
}

// propagate runs unit propagation; it returns false on conflict.
func (s *rupState) propagate() bool {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		falsified := p.Not()
		ws := s.watches[p]
		n := 0
	next:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if s.vals[w.blocker] == lTrue {
				ws[n] = w
				n++
				continue
			}
			c := s.lits[s.starts[w.clause]:s.starts[w.clause+1]]
			// Ensure the false literal is at position 1.
			if c[0] == falsified {
				c[0], c[1] = c[1], c[0]
			}
			first := c[0]
			if int32(first) != w.blocker && s.vals[first] == lTrue {
				ws[n] = rupWatch{w.clause, int32(first)}
				n++
				continue
			}
			for k := 2; k < len(c); k++ {
				if s.vals[c[k]] != lFalse {
					c[1], c[k] = c[k], c[1]
					q := c[1].Not()
					s.watches[q] = append(s.watches[q], rupWatch{w.clause, int32(first)})
					continue next
				}
			}
			// The clause is unit or conflicting.
			ws[n] = rupWatch{w.clause, int32(first)}
			n++
			if s.vals[first] == lFalse {
				n += copy(ws[n:], ws[i+1:])
				s.watches[p] = ws[:n]
				s.qhead = len(s.trail)
				return false
			}
			s.assign(first)
		}
		s.watches[p] = ws[:n]
	}
	return true
}

// undo retracts every assignment above the persistent root.
func (s *rupState) undo() {
	for _, l := range s.trail[s.root:] {
		s.vals[l] = lUndef
		s.vals[l.Not()] = lUndef
	}
	s.trail = s.trail[:s.root]
	s.qhead = s.root
}

// push copies raw onto the arena's tail and normalises it there.
func (s *rupState) push(raw cnf.Clause) (cnf.Clause, bool) {
	base := len(s.lits)
	s.lits = append(s.lits, raw...)
	return cnf.Clause(s.lits[base:]).Normalize()
}

// implied reports whether the normalised lemma is RUP: asserting the
// negation of each of its literals propagates to a conflict.
func (s *rupState) implied(lemma []cnf.Lit) bool {
	for _, l := range lemma {
		switch s.vals[l] {
		case lTrue:
			// Satisfied at the root (the lemma has no complementary
			// literals, so nothing else made l true).
			s.undo()
			return true
		case lUndef:
			s.assign(l.Not())
		}
	}
	conflict := !s.propagate()
	s.undo()
	return conflict
}

// add stores a verified lemma, pushed by push, and propagates it at the
// root. Literals false at the root are dropped and a lemma true there is
// not stored, since root assignments persist. It reports whether the
// root state now conflicts: the empty clause is derived.
func (s *rupState) add(lemma []cnf.Lit) bool {
	base := int(s.starts[len(s.starts)-1])
	n := 0
	for _, l := range lemma {
		switch s.vals[l] {
		case lTrue:
			s.lits = s.lits[:base]
			return false
		case lUndef:
			lemma[n] = l
			n++
		}
	}
	s.lits = s.lits[:base+n]
	switch n {
	case 0:
		return true
	case 1:
		s.lits = s.lits[:base]
		s.assign(lemma[0])
		if !s.propagate() {
			return true
		}
		s.root = len(s.trail)
		return false
	}
	s.starts = append(s.starts, int32(len(s.lits)))
	s.watch(int32(len(s.starts) - 2))
	return false
}
