package sat_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/sat"
)

// partitionProofs encodes safestack at the given bounds, splits it into
// parts partitions and returns the formula with each partition's
// assumptions and recorded refutation.
func partitionProofs(b *testing.B, unwind, contexts, parts int) (*cnf.Formula, [][]cnf.Lit, []*sat.Proof) {
	b.Helper()
	opts := core.Options{Unwind: unwind, Contexts: contexts, Partitions: parts}
	enc, _, _, err := core.EncodeProgram(bench.Safestack(), opts)
	if err != nil {
		b.Fatal(err)
	}
	pts, _, err := core.MakePartitions(enc, opts)
	if err != nil {
		b.Fatal(err)
	}
	f := enc.Formula()
	var assumps [][]cnf.Lit
	var proofs []*sat.Proof
	for _, pt := range pts {
		s := sat.NewFromFormula(f, sat.Options{})
		s.EnableProof()
		if st, err := s.Solve(pt.Assumptions...); err != nil || st != sat.Unsat {
			b.Fatalf("partition %d: %v %v, want UNSAT", pt.Index, st, err)
		}
		assumps = append(assumps, pt.Assumptions)
		proofs = append(proofs, s.ProofLog())
	}
	return f, assumps, proofs
}

// BenchmarkCheckRUP checks every per-partition proof of safestack u1c4
// (4 partitions) the way the verifier does: one prepared checker for
// the formula, one Check per partition. "oneshot" pays the preparation
// per proof, as a caller of sat.CheckRUP does.
func BenchmarkCheckRUP(b *testing.B) {
	f, assumps, proofs := partitionProofs(b, 1, 4, 4)
	lemmas := 0
	for _, p := range proofs {
		lemmas += p.NumLemmas()
	}
	b.Run("prepared", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			checker := sat.NewRUPChecker(f)
			for j, p := range proofs {
				if err := checker.Check(assumps[j], p); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(lemmas), "lemmas/op")
	})
	b.Run("oneshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j, p := range proofs {
				if err := sat.CheckRUP(f, assumps[j], p); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(lemmas), "lemmas/op")
	})
}
