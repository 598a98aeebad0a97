package sat

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/cnf"
)

// naiveRUP is the reference forward RUP check the watched checker is
// tested against: unit propagation by repeated full scans of every
// clause, with no watches, no arena and no simplification. It accepts
// exactly when the proof is valid: every literal names a formula
// variable, every lemma is a RUP consequence of the formula, the
// assumptions and the lemmas before it, and propagation reaches a
// conflict.
func naiveRUP(f *cnf.Formula, assumptions []cnf.Lit, p *Proof) bool {
	nv := f.NumVars
	valid := func(l cnf.Lit) bool { return l.Var() >= 1 && int(l.Var()) <= nv }
	for _, l := range assumptions {
		if !valid(l) {
			return false
		}
	}
	for _, lemma := range p.Lemmas {
		for _, l := range lemma {
			if !valid(l) {
				return false
			}
		}
	}
	clauses := append([]cnf.Clause(nil), f.Clauses...)
	value := func(vals []int8, l cnf.Lit) int8 {
		if l.Neg() {
			return -vals[l.Var()]
		}
		return vals[l.Var()]
	}
	set := func(vals []int8, l cnf.Lit) {
		vals[l.Var()] = lTrue
		if l.Neg() {
			vals[l.Var()] = lFalse
		}
	}
	// propagate reports false on conflict.
	propagate := func(vals []int8) bool {
		for changed := true; changed; {
			changed = false
			for _, c := range clauses {
				undef, free := 0, cnf.LitUndef
				satisfied := false
				for _, l := range c {
					switch value(vals, l) {
					case lTrue:
						satisfied = true
					case lUndef:
						undef++
						free = l
					}
				}
				switch {
				case satisfied:
				case undef == 0:
					return false
				case undef == 1:
					set(vals, free)
					changed = true
				}
			}
		}
		return true
	}
	root := make([]int8, nv+1)
	for _, l := range assumptions {
		if value(root, l) == lFalse {
			return true
		}
		set(root, l)
	}
	if !propagate(root) {
		return true
	}
	for _, lemma := range p.Lemmas {
		vals := append([]int8(nil), root...)
		conflict := false
		for _, l := range lemma {
			switch value(vals, l) {
			case lTrue:
				conflict = true
			case lUndef:
				set(vals, l.Not())
			}
		}
		if !conflict && propagate(vals) {
			return false
		}
		clauses = append(clauses, lemma)
		if !propagate(root) {
			return true
		}
	}
	return false
}

// proofMutants returns p and damaged copies of it: each lemma dropped in
// turn, a literal flipped, the tail truncated, and a junk lemma spliced
// in. Some mutants stay valid (a redundant lemma dropped, a truncation
// after the final conflict); that is what the oracle is for.
func proofMutants(rng *rand.Rand, nv int, p *Proof) []*Proof {
	lemmas := p.Lemmas
	with := func(ls []cnf.Clause) *Proof { return &Proof{Lemmas: ls} }
	out := []*Proof{p}
	for i := range lemmas {
		dropped := append(append([]cnf.Clause(nil), lemmas[:i]...), lemmas[i+1:]...)
		out = append(out, with(dropped))
		out = append(out, with(append([]cnf.Clause(nil), lemmas[:i]...)))
	}
	for k := 0; k < 4 && len(lemmas) > 0; k++ {
		flipped := append([]cnf.Clause(nil), lemmas...)
		i := rng.Intn(len(lemmas))
		if len(lemmas[i]) == 0 {
			continue
		}
		c := lemmas[i].Clone()
		j := rng.Intn(len(c))
		c[j] = c[j].Not()
		flipped[i] = c
		out = append(out, with(flipped))
	}
	for k := 0; k < 4; k++ {
		junk := make(cnf.Clause, rng.Intn(4))
		for j := range junk {
			junk[j] = cnf.MkLit(cnf.Var(1+rng.Intn(nv)), rng.Intn(2) == 0)
		}
		i := rng.Intn(len(lemmas) + 1)
		spliced := append(append(append([]cnf.Clause(nil), lemmas[:i]...), junk), lemmas[i:]...)
		out = append(out, with(spliced))
	}
	return out
}

// random3SAT draws nc clauses of three distinct variables each: near
// the satisfiability threshold, so refutations need real lemmas.
func random3SAT(rng *rand.Rand, nv, nc int) *cnf.Formula {
	f := cnf.New()
	f.NumVars = nv
	for i := 0; i < nc; i++ {
		vs := rng.Perm(nv)[:3]
		f.AddClause(
			cnf.MkLit(cnf.Var(1+vs[0]), rng.Intn(2) == 0),
			cnf.MkLit(cnf.Var(1+vs[1]), rng.Intn(2) == 0),
			cnf.MkLit(cnf.Var(1+vs[2]), rng.Intn(2) == 0))
	}
	return f
}

// TestCheckRUPMatchesNaiveReference: over random small UNSAT formulas,
// the watched checker accepts a solver proof or a mutant of it exactly
// when the full-scan reference does.
func TestCheckRUPMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	checked, accepted, rejected := 0, 0, 0
	for iter := 0; iter < 150; iter++ {
		nv := 6 + rng.Intn(14)
		f := random3SAT(rng, nv, int(4.6*float64(nv)))
		var assumps []cnf.Lit
		for i := rng.Intn(3); i > 0; i-- {
			assumps = append(assumps, cnf.MkLit(cnf.Var(1+rng.Intn(nv)), rng.Intn(2) == 0))
		}
		s := NewFromFormula(f, Options{})
		s.EnableProof()
		st, err := s.Solve(assumps...)
		if err != nil {
			t.Fatal(err)
		}
		if st != Unsat {
			continue
		}
		checker := NewRUPChecker(f)
		for m, p := range proofMutants(rng, nv, s.ProofLog()) {
			want := naiveRUP(f, assumps, p)
			got := checker.Check(assumps, p)
			if (got == nil) != want {
				t.Fatalf("iter %d mutant %d: checker says %v, reference accepts=%v\nformula %v\nassumptions %v\nproof %v",
					iter, m, got, want, f.Clauses, assumps, p.Lemmas)
			}
			if m == 0 && !want {
				t.Fatalf("iter %d: the solver's own proof is invalid: %v", iter, p.Lemmas)
			}
			checked++
			if want {
				accepted++
			} else {
				rejected++
			}
		}
	}
	t.Logf("%d proofs: %d accepted, %d rejected", checked, accepted, rejected)
	if accepted < 100 || rejected < 100 {
		t.Fatalf("weak oracle run: %d proofs, %d accepted, %d rejected", checked, accepted, rejected)
	}
}

// TestCheckRUPRootSimplifiedLemma: a lemma that is unit under the root
// assignment, though its first literals are false there, must still
// propagate, or a valid proof relying on it is rejected.
func TestCheckRUPRootSimplifiedLemma(t *testing.T) {
	x := cnf.PosLit
	f := cnf.New()
	f.AddClause(x(1))
	f.AddClause(x(2).Not())
	f.AddClause(x(6), x(8)) // ¬x6 refutes itself through x8
	f.AddClause(x(6), x(8).Not())
	f.AddClause(x(6).Not(), x(7)) // and so does x6, through x7
	f.AddClause(x(6).Not(), x(7).Not())
	proof := &Proof{Lemmas: []cnf.Clause{
		{x(1).Not(), x(2), x(6)}, // RUP; the unit x6 under the root
	}}
	if err := NewRUPChecker(f).Check(nil, proof); err != nil {
		t.Fatalf("valid proof rejected: %v", err)
	}
	if !naiveRUP(f, nil, proof) {
		t.Fatal("reference rejects the proof")
	}
}

// TestCheckRUPRejectsOutOfRangeLiterals: literals of no formula
// variable — negative, variable zero, or past NumVars — in assumptions
// or lemmas are errors, not panics, wherever they appear.
func TestCheckRUPRejectsOutOfRangeLiterals(t *testing.T) {
	f := cnf.New()
	f.AddClause(cnf.PosLit(1), cnf.PosLit(2))
	f.AddClause(cnf.NegLit(1))
	f.AddClause(cnf.NegLit(2))
	for _, bad := range []cnf.Lit{-3, -1, 0, 1, cnf.PosLit(3), cnf.NegLit(50), cnf.Lit(1 << 40)} {
		cases := map[string]func() error{
			"assumption": func() error { return CheckRUP(f, []cnf.Lit{bad}, &Proof{}) },
			"lemma": func() error {
				return CheckRUP(f, nil, &Proof{Lemmas: []cnf.Clause{{cnf.PosLit(1), bad}}})
			},
			// A valid refutation followed by a malformed lemma: the
			// whole certificate is rejected, not just its tail skipped.
			"tail": func() error {
				return CheckRUP(f, nil, &Proof{Lemmas: []cnf.Clause{{cnf.PosLit(1)}, {bad}}})
			},
		}
		for name, check := range cases {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("literal %d in %s: panic %v", int(bad), name, r)
					}
				}()
				if err := check(); err == nil {
					t.Fatalf("literal %d in %s accepted", int(bad), name)
				}
			}()
		}
	}
	// The same formula refutes itself with no lemmas at all.
	if err := CheckRUP(f, nil, &Proof{}); err != nil {
		t.Fatalf("in-range refutation rejected: %v", err)
	}
	// A formula literal of no variable fails every check.
	bad := &cnf.Formula{NumVars: 1, Clauses: []cnf.Clause{{cnf.Lit(1)}}}
	if err := CheckRUP(bad, nil, &Proof{}); err == nil {
		t.Fatal("formula literal of variable 0 accepted")
	}
}

// TestCheckRUPNilProof: a nil proof is the empty proof.
func TestCheckRUPNilProof(t *testing.T) {
	f := cnf.New()
	f.AddClause(cnf.PosLit(1))
	if err := CheckRUP(f, []cnf.Lit{cnf.NegLit(1)}, nil); err != nil {
		t.Fatalf("root conflict under a nil proof rejected: %v", err)
	}
	if err := CheckRUP(f, nil, nil); err == nil {
		t.Fatal("nil proof of a satisfiable formula accepted")
	}
}

// fuzzFormula is a satisfiable four-variable formula that becomes
// unsatisfiable under some assumptions (¬x4, for one).
func fuzzFormula() *cnf.Formula {
	x := cnf.PosLit
	f := cnf.New()
	f.AddClause(x(1), x(2))
	f.AddClause(x(1).Not(), x(3))
	f.AddClause(x(2).Not(), x(3))
	f.AddClause(x(3).Not(), x(4))
	return f
}

// decodeLits reads each byte as a signed raw literal (the solver's
// 2v / 2v+1 encoding), so out-of-range literals come easily.
func decodeLits(data []byte) []cnf.Lit {
	out := make([]cnf.Lit, len(data))
	for i, b := range data {
		out[i] = cnf.Lit(int8(b))
	}
	return out
}

// decodeProof splits data into lemmas at zero bytes.
func decodeProof(data []byte) *Proof {
	p := &Proof{}
	cur := cnf.Clause{}
	for _, b := range data {
		if b == 0 {
			p.Lemmas = append(p.Lemmas, cur)
			cur = cnf.Clause{}
			continue
		}
		cur = append(cur, cnf.Lit(int8(b)))
	}
	if len(cur) > 0 {
		p.Lemmas = append(p.Lemmas, cur)
	}
	return p
}

// FuzzCheckRUP feeds arbitrary assumption and lemma literals to the
// checker over fuzzFormula. It must never panic, it must agree with the
// naive reference, and any proof it accepts must be sound: the formula
// under those assumptions has no model.
func FuzzCheckRUP(f *testing.F) {
	lit := func(l cnf.Lit) byte { return byte(int8(l)) }
	x := cnf.PosLit
	f.Add([]byte{}, []byte{})
	f.Add([]byte{lit(x(4).Not())}, []byte{})                      // refuted by propagation
	f.Add([]byte{}, []byte{lit(x(3)), 0, lit(x(4)), 0})           // valid lemmas, no refutation
	f.Add([]byte{lit(x(3).Not())}, []byte{lit(x(3)), 0})          // lemma conflicts with assumption
	f.Add([]byte{}, []byte{lit(x(4).Not()), 0})                   // bogus lemma
	f.Add([]byte{0xfd}, []byte{})                                 // literal -3
	f.Add([]byte{}, []byte{lit(x(1)), 100, 0})                    // variable 50
	f.Add([]byte{1}, []byte{lit(x(1)), lit(x(1).Not()), 0, 0xff}) // tautology, literal -1
	formula := fuzzFormula()
	f.Fuzz(func(t *testing.T, assume, proof []byte) {
		assumps, p := decodeLits(assume), decodeProof(proof)
		err := NewRUPChecker(formula).Check(assumps, p)
		if want := naiveRUP(formula, assumps, p); (err == nil) != want {
			t.Fatalf("checker says %v, reference accepts=%v (assumptions %v, lemmas %v)", err, want, assumps, p.Lemmas)
		}
		if err != nil {
			return
		}
		assign := make([]bool, formula.NumVars+1)
		for mask := 0; mask < 1<<formula.NumVars; mask++ {
			for v := 1; v <= formula.NumVars; v++ {
				assign[v] = mask&(1<<(v-1)) != 0
			}
			holds := formula.Eval(assign)
			for _, l := range assumps {
				holds = holds && assign[l.Var()] != l.Neg()
			}
			if holds {
				t.Fatalf("accepted a refutation of a satisfiable case: assumptions %v, model %v, lemmas %v", assumps, assign, p.Lemmas)
			}
		}
	})
}

// TestRUPCheckerConcurrentChecks: one prepared checker serves proofs
// checked from several goroutines at once, as the parallel solver and
// the coordinator share it; each Check must see only its own state.
func TestRUPCheckerConcurrentChecks(t *testing.T) {
	f := pigeonhole(5)
	type job struct {
		assumps []cnf.Lit
		proof   *Proof
	}
	var jobs []job
	for mask := 0; mask < 4; mask++ {
		assumps := []cnf.Lit{cnf.MkLit(1, mask&1 == 0), cnf.MkLit(2, mask&2 == 0)}
		s := NewFromFormula(f, Options{})
		s.EnableProof()
		if st, err := s.Solve(assumps...); err != nil || st != Unsat {
			t.Fatalf("mask %d: %v %v", mask, st, err)
		}
		jobs = append(jobs, job{assumps, s.ProofLog()})
	}
	checker := NewRUPChecker(f)
	var wg sync.WaitGroup
	errs := make(chan error, 4*len(jobs))
	for round := 0; round < 4; round++ {
		for _, j := range jobs {
			wg.Add(1)
			go func(j job) {
				defer wg.Done()
				errs <- checker.Check(j.assumps, j.proof)
			}(j)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// A truncated proof is still rejected after the concurrent checks:
	// no state leaked into the shared base.
	for _, j := range jobs {
		if len(j.proof.Lemmas) == 0 {
			continue
		}
		if err := checker.Check(j.assumps, &Proof{Lemmas: j.proof.Lemmas[:len(j.proof.Lemmas)-1]}); err == nil {
			t.Fatal("truncated proof accepted")
		}
	}
}
