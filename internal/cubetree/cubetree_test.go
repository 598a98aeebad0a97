package cubetree

import (
	"testing"
	"time"

	"repro/internal/journal"
	"repro/internal/partition"
	"repro/internal/sat"
)

var t0 = time.Unix(1_000_000, 0)

func ms(n int) time.Time { return t0.Add(time.Duration(n) * time.Millisecond) }

// recordCancels returns a cancel callback that collects the IDs of the
// assignments the tree cancels.
func recordCancels(ids *[]int) func(*Assignment[string]) {
	return func(a *Assignment[string]) { *ids = append(*ids, a.ID) }
}

// The supersession fence: once a cube is reserved for splitting —
// before the SPLIT record even lands — its parent result can no longer
// win the race, and after CompleteSplit only the two children are
// claimable.
func TestSchedulerSupersededParentRejected(t *testing.T) {
	var cancelled []int
	tr := New(Config{SplitDepth: 2, SplitBits: 4, SplitGrace: time.Millisecond}, recordCancels(&cancelled))

	parent := partition.Cube{From: 0, To: 3}
	tr.Enqueue(parent)
	a := tr.Acquire("w1", "w1", ms(0)).Run
	if a == nil || a.Cube != parent {
		t.Fatalf("Acquire on a filled queue: %+v", a)
	}
	// Inside the grace nothing qualifies; the idle worker is told when
	// the straggler will.
	if n := tr.Acquire("w2", "w2", ms(0)); n.Run != nil || n.Victim != nil || !n.At.Equal(ms(1)) {
		t.Fatalf("inside the grace: %+v, want nothing to do until %v", n, ms(1))
	}

	// Past the grace, an idle worker with an empty queue reserves it.
	n := tr.Acquire("w2", "w2", ms(5))
	if n.Run != nil || n.Victim != a {
		t.Fatalf("expected w2 to reserve w1's cube as split victim, got %+v", n)
	}
	// The pre-commit window: the parent's own result already loses.
	if tr.Claim(a) {
		t.Fatal("parent result claimed while its cube was reserved for splitting")
	}

	left := tr.CompleteSplit(n.Victim, "w2", "w2", ms(5))
	if left.Cube != (partition.Cube{From: 0, To: 1}) {
		t.Fatalf("stolen child %+v, want {0 1}", left.Cube)
	}
	if !tr.Claim(left) {
		t.Fatal("left child result rejected")
	}
	right := tr.Acquire("w1", "w1", ms(6)).Run
	if right == nil || right.Cube != (partition.Cube{From: 2, To: 3}) {
		t.Fatalf("right child not queued: %+v", right)
	}
	if !tr.Claim(right) {
		t.Fatal("right child result rejected")
	}

	st := tr.Stats()
	if st.Splits != 1 || st.Steals != 1 || st.Superseded != 1 {
		t.Fatalf("stats %+v, want splits/steals/superseded 1/1/1", st)
	}
	if tr.Outstanding() != 0 {
		t.Fatalf("outstanding %d after both children decided", tr.Outstanding())
	}
	if len(cancelled) != 0 {
		t.Fatalf("cancelled %v: the parent had already reported", cancelled)
	}
}

// The hedge race: the twin that reports first wins and cancels the
// other; the loser's release reports the cube as covered (no requeue,
// no charge) and a late claim from the loser is rejected.
func TestSchedulerHedgeLoserDiscarded(t *testing.T) {
	var cancelled []int
	tr := New(Config{Hedge: true, SplitGrace: time.Millisecond}, recordCancels(&cancelled))

	cube := partition.Cube{From: 0, To: 1}
	tr.Enqueue(cube)
	orig := tr.Acquire("w1", "w1", ms(0)).Run
	if orig == nil {
		t.Fatal("no assignment for the queued cube")
	}
	// The owner itself is never offered its own cube to hedge.
	if n := tr.Acquire("w1", "w1", ms(5)); n.Run != nil {
		t.Fatalf("w1 hedged its own cube: %+v", n.Run)
	}

	twin := tr.Acquire("w2", "w2", ms(5)).Run
	if twin == nil || !twin.Hedge || twin.Cube != cube {
		t.Fatalf("expected a hedge duplicate of %v, got %+v", cube, twin)
	}
	// A cube already hedged must not be duplicated again.
	if n := tr.Acquire("w3", "w3", ms(5)); n.Run != nil {
		t.Fatalf("cube hedged twice: %+v", n.Run)
	}

	if !tr.Claim(twin) {
		t.Fatal("hedge winner rejected")
	}
	if len(cancelled) != 1 || cancelled[0] != orig.ID {
		t.Fatalf("cancelled %v, want the loser %d", cancelled, orig.ID)
	}
	if tr.Release(orig) {
		t.Fatal("hedge loser was released for requeue; it must be discarded")
	}
	if tr.Claim(orig) {
		t.Fatal("hedge loser's late result claimed after the twin won")
	}

	if st := tr.Stats(); st.Hedges != 1 || st.Superseded < 1 {
		t.Fatalf("stats %+v, want hedges 1 and superseded >= 1", st)
	}
}

// waitAndAcquire blocks in Wait on n, then asks the tree again and
// delivers the decision.
func waitAndAcquire(tr *Tree[string], n Next[string], worker string, now time.Time) <-chan Next[string] {
	out := make(chan Next[string], 1)
	go func() {
		Wait(n, nil)
		out <- tr.Acquire(worker, worker, now)
	}()
	return out
}

// An idle executor blocked on the tree is released the moment the last
// outstanding leaf is decided — no poll tick — and is then told the
// run is done. With splitting and hedging off it arms no timer at all.
func TestWaiterWokenWhenLastLeafDecided(t *testing.T) {
	tr := New[string](Config{}, nil)
	tr.Enqueue(partition.Cube{From: 0, To: 0})
	a := tr.Acquire("w1", "w1", ms(0)).Run
	n := tr.Acquire("w2", "w2", ms(0))
	if n.Run != nil || n.Victim != nil || n.Done || !n.At.IsZero() {
		t.Fatalf("idle decision %+v, want a bare wait (no timer)", n)
	}
	woke := waitAndAcquire(tr, n, "w2", ms(0))
	select {
	case got := <-woke:
		t.Fatalf("waiter released before any event: %+v", got)
	default:
	}
	if !tr.Claim(a) {
		t.Fatal("claim lost")
	}
	if got := <-woke; !got.Done {
		t.Fatalf("after the last leaf: %+v, want Done", got)
	}
}

// An idle executor blocked on the tree is released when split children
// are queued, and picks one up.
func TestWaiterWokenBySplitChildren(t *testing.T) {
	tr := New[string](Config{SplitDepth: 1, SplitBits: 1, SplitGrace: time.Second}, nil)
	tr.Enqueue(partition.Cube{From: 0, To: 0})
	a := tr.Acquire("w1", "w1", ms(0)).Run
	n := tr.Acquire("w3", "w3", ms(0))
	if n.Run != nil || n.Victim != nil || n.Done || !n.At.Equal(ms(1000)) {
		t.Fatalf("idle decision %+v, want a wait until the grace ends at %v", n, ms(1000))
	}
	n.At = time.Time{} // wait on the event alone: no real timer in this test
	woke := waitAndAcquire(tr, n, "w3", ms(1000))

	v := tr.Acquire("w2", "w2", ms(1000)).Victim
	if v != a {
		t.Fatalf("victim %+v, want w1's cube", v)
	}
	select {
	case got := <-woke:
		t.Fatalf("waiter released by the reservation alone: %+v", got)
	default:
	}
	left := tr.CompleteSplit(v, "w2", "w2", ms(1000))
	got := <-woke
	if got.Run == nil || got.Run.Cube != (partition.Cube{From: 0, To: 0, Path: "1"}) {
		t.Fatalf("woken waiter got %+v, want the right child", got)
	}
	if left.Cube.Path != "0" {
		t.Fatalf("splitter kept %+v, want the left child", left.Cube)
	}
}

// A hardness reading that lifts a past-grace cube over the floor is an
// event: it releases a waiter, which then reserves the cube.
func TestWaiterWokenByHardnessCrossing(t *testing.T) {
	tr := New[string](Config{SplitDepth: 1, SplitBits: 1, SplitGrace: time.Millisecond, SplitHardness: 10}, nil)
	tr.Enqueue(partition.Cube{From: 0, To: 0})
	a := tr.Acquire("w1", "w1", ms(0)).Run
	n := tr.Acquire("w2", "w2", ms(5))
	if n.Victim != nil || !n.At.IsZero() {
		t.Fatalf("below the floor past the grace: %+v, want a bare wait", n)
	}
	woke := waitAndAcquire(tr, n, "w2", ms(5))
	tr.Note(a, 3) // still below: no event
	select {
	case got := <-woke:
		t.Fatalf("released below the floor: %+v", got)
	default:
	}
	tr.Note(a, 12)
	if got := <-woke; got.Victim != a {
		t.Fatalf("after the crossing: %+v, want the victim", got)
	}
}

// A SPLIT supersedes its cube whatever the record order: a verdict
// committed before the SPLIT (say by an earlier run under a smaller
// budget) is stale, and the children carry the cube.
func TestReplayVerdictThenSplit(t *testing.T) {
	roots := []partition.Cube{{From: 0, To: 1}}
	recs := []journal.ChunkRecord{
		{From: 0, To: 1, Verdict: "UNKNOWN", Cause: "conflict-budget", Conflicts: 1},
		{From: 0, To: 1, Verdict: journal.VerdictSplit},
		{From: 0, To: 0, Verdict: "UNSAT"},
	}
	rep := Replay(roots, recs)
	if rep.Splits != 1 || len(rep.Leaves) != 2 {
		t.Fatalf("replayed %+v, want the split's two children", rep)
	}
	if l := rep.Leaves[0]; l.Cube != (partition.Cube{From: 0, To: 0}) || l.Record == nil || l.Record.Verdict != "UNSAT" {
		t.Fatalf("left leaf %+v, want {0 0} with its UNSAT record", l)
	}
	if l := rep.Leaves[1]; l.Cube != (partition.Cube{From: 1, To: 1}) || l.Record != nil {
		t.Fatalf("right leaf %+v, want {1 1} pending", l)
	}
}

// Among the verdicts for a live leaf the last committed one wins; a
// record for a cube outside the tree is ignored, and path splits count
// towards the depth.
func TestReplayLastVerdictWins(t *testing.T) {
	roots := []partition.Cube{{From: 0, To: 0}, {From: 1, To: 1}}
	recs := []journal.ChunkRecord{
		{From: 0, To: 0, Verdict: "UNKNOWN", Cause: "conflict-budget", Conflicts: 1},
		{From: 1, To: 1, Verdict: journal.VerdictSplit},
		{From: 0, To: 0, Verdict: "UNSAT"},
		{From: 1, To: 1, Path: "1", Verdict: "SAT", Winner: 1},
		{From: 7, To: 7, Verdict: "UNSAT"},
		{From: 1, To: 1, Path: "00", Verdict: "UNSAT"},
	}
	rep := Replay(roots, recs)
	want := []struct {
		cube    partition.Cube
		verdict string
	}{
		{partition.Cube{From: 0, To: 0}, "UNSAT"},
		{partition.Cube{From: 1, To: 1, Path: "0"}, ""},
		{partition.Cube{From: 1, To: 1, Path: "1"}, "SAT"},
	}
	if len(rep.Leaves) != len(want) || rep.Splits != 1 || rep.MaxDepth != 1 {
		t.Fatalf("replayed %+v, want 3 leaves, 1 split, depth 1", rep)
	}
	for i, w := range want {
		l := rep.Leaves[i]
		got := ""
		if l.Record != nil {
			got = l.Record.Verdict
		}
		if l.Cube != w.cube || got != w.verdict {
			t.Fatalf("leaf %d: %v %q, want %v %q", i, l.Cube, got, w.cube, w.verdict)
		}
	}
}

// The fold: SAT dominates, UNSAT needs every leaf, and Unknown keeps
// the most severe cause in the memory > timeout > conflict-budget >
// cancelled order.
func TestFold(t *testing.T) {
	unk := func(c sat.StopCause) Outcome { return Outcome{Status: sat.Unknown, Cause: c} }
	unsat := Outcome{Status: sat.Unsat}
	cases := []struct {
		leaves []Outcome
		want   Outcome
	}{
		{nil, Refuted},
		{[]Outcome{unsat, unsat}, Refuted},
		{[]Outcome{unsat, unk(sat.CauseCancelled), unk(sat.CauseConflictBudget)}, unk(sat.CauseConflictBudget)},
		{[]Outcome{unk(sat.CauseTimeout), unk(sat.CauseConflictBudget)}, unk(sat.CauseTimeout)},
		{[]Outcome{unk(sat.CauseTimeout), unk(sat.CauseMemory), unsat}, unk(sat.CauseMemory)},
		{[]Outcome{unk(sat.CauseMemory), {Status: sat.Sat}, unsat}, Outcome{Status: sat.Sat}},
		{[]Outcome{{Status: sat.Sat}, unk(sat.CauseTimeout)}, Outcome{Status: sat.Sat}},
	}
	for i, c := range cases {
		got := Refuted
		for _, l := range c.leaves {
			got = Fold(got, l)
		}
		if got != c.want {
			t.Fatalf("case %d: fold %+v, want %+v", i, got, c.want)
		}
	}
}
