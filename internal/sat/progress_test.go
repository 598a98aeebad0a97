package sat

import (
	"sync"
	"testing"
	"time"
)

func TestProgressCallback(t *testing.T) {
	s := NewFromFormula(pigeonhole(6), Options{ProgressEvery: 10})
	var snaps []Stats
	s.Progress = func(st Stats) { snaps = append(snaps, st) }
	status, err := s.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if status != Unsat {
		t.Fatalf("status %v", status)
	}
	if len(snaps) == 0 {
		t.Fatal("progress callback never invoked")
	}
	for i, st := range snaps {
		if st.Conflicts%10 != 0 || st.Conflicts == 0 {
			t.Fatalf("snapshot %d at conflicts=%d, want a positive multiple of 10", i, st.Conflicts)
		}
		if i > 0 && st.Conflicts <= snaps[i-1].Conflicts {
			t.Fatalf("snapshots not monotone: %d then %d", snaps[i-1].Conflicts, st.Conflicts)
		}
	}
	final := s.Stats()
	last := snaps[len(snaps)-1]
	if last.Conflicts > final.Conflicts || last.Propagations > final.Propagations {
		t.Fatalf("snapshot overtook final stats: %+v vs %+v", last, final)
	}
}

func TestProgressDisabledByDefault(t *testing.T) {
	s := NewFromFormula(pigeonhole(5), Options{})
	s.Progress = func(Stats) { t.Fatal("progress fired with ProgressEvery=0") }
	if st, err := s.Solve(); err != nil || st != Unsat {
		t.Fatalf("status %v err %v", st, err)
	}
}

// TestProgressEstimateBounds checks the MiniSat-style estimate stays in
// [0,1] at every snapshot and is stamped on the final stats.
func TestProgressEstimateBounds(t *testing.T) {
	s := NewFromFormula(pigeonhole(6), Options{ProgressEvery: 5})
	s.Progress = func(st Stats) {
		if st.Progress < 0 || st.Progress > 1 {
			t.Fatalf("estimate %v out of [0,1]", st.Progress)
		}
	}
	if st, err := s.Solve(); err != nil || st != Unsat {
		t.Fatalf("status %v err %v", st, err)
	}
	// A finished solve has examined its whole (remaining) space: the
	// final estimate must be present and in range.
	if p := s.Stats().Progress; p <= 0 || p > 1 {
		t.Fatalf("final estimate %v, want (0,1]", p)
	}
}

func TestProgressEstimateEmptySolver(t *testing.T) {
	s := New(0, Options{})
	if got := s.ProgressEstimate(); got != 1 {
		t.Fatalf("estimate with no variables: %v, want 1", got)
	}
}

// TestProgressCallbackRaceHammer drives many concurrent solvers through
// a shared progress callback — the shape parallel/portfolio solving
// produces — so the race detector can see any unsynchronised access in
// the estimator or the stats snapshot it is stamped on.
func TestProgressCallbackRaceHammer(t *testing.T) {
	f := pigeonhole(6)
	var mu sync.Mutex
	furthest := map[int]float64{}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := NewFromFormula(f, Options{ProgressEvery: 1})
			s.Progress = func(st Stats) {
				if st.Progress < 0 || st.Progress > 1 {
					t.Errorf("instance %d: estimate %v out of [0,1]", i, st.Progress)
				}
				mu.Lock()
				if st.Progress > furthest[i] {
					furthest[i] = st.Progress
				}
				mu.Unlock()
			}
			if st, err := s.Solve(); err != nil || st != Unsat {
				t.Errorf("instance %d: status %v err %v", i, st, err)
			}
		}(i)
	}
	wg.Wait()
	if len(furthest) != 8 {
		t.Fatalf("instances reporting: %d, want 8", len(furthest))
	}
}

func TestStatsAddProgressIsMax(t *testing.T) {
	a := Stats{Progress: 0.25}
	a.Add(Stats{Progress: 0.75})
	if a.Progress != 0.75 {
		t.Fatalf("Progress after Add: %v, want max 0.75", a.Progress)
	}
	a.Add(Stats{Progress: 0.1})
	if a.Progress != 0.75 {
		t.Fatalf("Progress regressed to %v", a.Progress)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Decisions: 1, Conflicts: 2, Propagations: 3, Restarts: 4, MaxDepth: 5,
		Backjumps: 6, Learnt: 7, LearntLits: 8, Minimised: 9, Simplified: 10, ElimVars: 11}
	b := Stats{Decisions: 10, Conflicts: 20, Propagations: 30, Restarts: 40, MaxDepth: 3,
		Backjumps: 60, Learnt: 70, LearntLits: 80, Minimised: 90, Simplified: 100, ElimVars: 110}
	a.Add(b)
	want := Stats{Decisions: 11, Conflicts: 22, Propagations: 33, Restarts: 44, MaxDepth: 5,
		Backjumps: 66, Learnt: 77, LearntLits: 88, Minimised: 99, Simplified: 110, ElimVars: 121}
	if a != want {
		t.Fatalf("got %+v want %+v", a, want)
	}
}

// BenchmarkSolve solves the UNSAT eliminationstack fixture from scratch
// with the observability hook in its disabled (nil) state — the fast
// path every non-instrumented run takes, and the CDCL kernel
// (propagate, analyze, reduceDB) end to end on a real BMC formula.
// Compare against BenchmarkSolveProgress to see the cost of an armed
// hook; the nil path must be indistinguishable from the pre-hook solver.
func BenchmarkSolve(b *testing.B) { benchSolveFixture(b, 0) }

// BenchmarkSolveProgress is the same search with a live progress hook
// firing every 100 conflicts.
func BenchmarkSolveProgress(b *testing.B) { benchSolveFixture(b, 100) }

func benchSolveFixture(b *testing.B, progressEvery int64) {
	f := loadFixture(b, fixtures[0].file)
	b.ReportAllocs()
	b.ResetTimer()
	var props int64
	var busy time.Duration
	for i := 0; i < b.N; i++ {
		start := time.Now()
		s := NewFromFormula(f, Options{ProgressEvery: progressEvery})
		var fired int64
		if progressEvery > 0 {
			s.Progress = func(st Stats) { fired++ }
		}
		if st, err := s.Solve(); err != nil || st != Unsat {
			b.Fatalf("status %v err %v", st, err)
		}
		busy += time.Since(start)
		props += s.Stats().Propagations
	}
	b.ReportMetric(float64(props)/busy.Seconds(), "props/s")
}
