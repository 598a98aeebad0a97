package sat

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cnf"
)

// pigeonholeProof solves PHP(holes) with proof recording and returns the
// formula and its checked refutation.
func pigeonholeProof(t *testing.T, holes int) (*cnf.Formula, *Proof) {
	t.Helper()
	f := pigeonhole(holes)
	s := NewFromFormula(f, Options{})
	s.EnableProof()
	st, err := s.Solve()
	if err != nil || st != Unsat {
		t.Fatalf("PHP(%d): %v, %v", holes, st, err)
	}
	return f, s.ProofLog()
}

func TestDRATRoundTrip(t *testing.T) {
	f, p := pigeonholeProof(t, 3)
	if p.NumLemmas() == 0 || p.NumLits() == 0 {
		t.Fatalf("trivial proof: %d lemmas, %d lits", p.NumLemmas(), p.NumLits())
	}
	var buf bytes.Buffer
	if err := WriteDRAT(&buf, p); err != nil {
		t.Fatal(err)
	}
	back, err := ParseDRAT(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Lemmas, back.Lemmas) {
		t.Fatalf("round trip changed the proof:\n%v\n%v", p.Lemmas, back.Lemmas)
	}
	if err := CheckRUP(f, nil, back); err != nil {
		t.Fatalf("re-parsed proof rejected: %v", err)
	}
}

func TestDRATParseRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"1 2 3\n",   // missing terminator
		"1 x 0\n",   // non-integer literal
		"1 0 2 0\n", // literals after the terminator
		"0 trail\n", // ditto, non-numeric
	} {
		if _, err := ParseDRAT(strings.NewReader(in)); err == nil {
			t.Fatalf("ParseDRAT(%q) accepted", in)
		}
	}
}

func TestDRATParseSkipsCommentsAndDeletions(t *testing.T) {
	p, err := ParseDRAT(strings.NewReader("c header\nd 1 2 0\n-1 2 0\n\n0\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := []cnf.Clause{{cnf.NegLit(1), cnf.PosLit(2)}, nil}
	if len(p.Lemmas) != 2 || !reflect.DeepEqual(p.Lemmas[0], want[0]) || len(p.Lemmas[1]) != 0 {
		t.Fatalf("lemmas %v, want %v", p.Lemmas, want)
	}
}

func TestProofSizeNilSafe(t *testing.T) {
	var p *Proof
	if p.NumLemmas() != 0 || p.NumLits() != 0 {
		t.Fatal("nil proof has non-zero size")
	}
}
