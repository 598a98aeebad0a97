package cubetree

import (
	"repro/internal/journal"
	"repro/internal/partition"
	"repro/internal/sat"
)

// Leaf is one live leaf of a replayed tree.
type Leaf struct {
	Cube partition.Cube
	// Record is the last committed verdict for exactly this cube, nil if
	// none. Whether it still binds (budgets, certification) is the
	// executor's call.
	Record *journal.ChunkRecord
}

// Replayed is the cube tree a journal describes.
type Replayed struct {
	// Leaves lists the live leaves depth-first: roots in order, the
	// left child before the right.
	Leaves []Leaf
	// Splits counts the SPLIT records that apply to the tree; MaxDepth
	// is the deepest live leaf's path length.
	Splits, MaxDepth int
}

// Replay rebuilds the live leaf set under roots from journal records.
// A SPLIT record supersedes its cube whatever the record order — its
// two children replace it, and any verdict for the split cube is stale.
// Among the verdicts for a live leaf the last committed one wins: a
// later run that re-solved the leaf (say under a raised budget) speaks
// for it. Records for cubes outside the tree are ignored.
func Replay(roots []partition.Cube, records []journal.ChunkRecord) Replayed {
	split := make(map[partition.Cube]bool)
	verdict := make(map[partition.Cube]*journal.ChunkRecord)
	for i := range records {
		rec := &records[i]
		c := partition.Cube{From: rec.From, To: rec.To, Path: rec.Path}
		if rec.Split() {
			split[c] = true
		} else {
			verdict[c] = rec
		}
	}
	var out Replayed
	var walk func(c partition.Cube)
	walk = func(c partition.Cube) {
		if split[c] {
			out.Splits++
			left, right := c.Split()
			walk(left)
			walk(right)
			return
		}
		out.Leaves = append(out.Leaves, Leaf{Cube: c, Record: verdict[c]})
		out.MaxDepth = max(out.MaxDepth, c.Depth())
	}
	for _, r := range roots {
		walk(r)
	}
	return out
}

// Outcome is a leaf's (or a folded root's) verdict.
type Outcome struct {
	Status sat.Status
	Cause  sat.StopCause
}

// Refuted is the fold of no leaves: the identity for Fold.
var Refuted = Outcome{Status: sat.Unsat}

// Fold adds one leaf outcome to a root's running verdict. The leaves
// partition the root's assumption space, so the root is SAT if any leaf
// is, UNSAT iff every leaf is, and otherwise Unknown under the most
// severe leaf cause (sat.StopCause.Merge).
func Fold(acc, leaf Outcome) Outcome {
	switch {
	case acc.Status == sat.Sat || leaf.Status == sat.Sat:
		return Outcome{Status: sat.Sat}
	case leaf.Status == sat.Unknown:
		return Outcome{Status: sat.Unknown, Cause: acc.Cause.Merge(leaf.Cause)}
	}
	return acc
}
