// Package sat implements a conflict-driven clause-learning (CDCL)
// propositional decision procedure in the style of MiniSat 2.2, the solver
// used by the paper's prototype. It provides two-watched-literal unit
// propagation, VSIDS variable activity with phase saving, first-UIP clause
// learning with recursive minimisation, Luby restarts, learnt-clause
// database reduction, solving under assumptions implemented as frozen unit
// clauses (Sect. 3.3 of the paper), and the search statistics (decisions,
// maximal decision depth, backjumps) used to reproduce Figure 6.
package sat

import (
	"context"
	"errors"
	"math"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/cnf"
)

// Status is the outcome of a satisfiability check.
type Status int

const (
	// Unknown means the search was interrupted or ran out of budget.
	Unknown Status = iota
	// Sat means a satisfying assignment was found.
	Sat
	// Unsat means the formula (under the given assumptions) has none.
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}

// ErrInterrupted is returned by Solve when the solver was cancelled.
var ErrInterrupted = errors.New("sat: solver interrupted")

// ErrMemBudget is returned by Solve when the solver exceeded its memory
// budget (Options.MemBudgetMB) and emergency learnt-DB shrinking could
// not bring it back under, or when an external memory watchdog aborted
// the solve via InterruptMemory. Like conflict-budget exhaustion it is
// terminal under the same budget: rerunning with the same limit gives
// up again.
var ErrMemBudget = errors.New("sat: memory budget exhausted")

// StopCause classifies why a solve ended Unknown, so callers can tell a
// run that was cancelled (sibling found SAT, context done) from one
// that exhausted a per-chunk resource budget. SolveCtx assigns the
// cause: Solve itself only distinguishes interruption (ErrInterrupted,
// ErrMemBudget) from conflict-budget exhaustion (Unknown with nil error
// under MaxConflicts).
type StopCause int

const (
	// CauseNone: the solve reached a definite verdict.
	CauseNone StopCause = iota
	// CauseCancelled: interrupted by cancellation (context done, a
	// sibling instance won, or an explicit Interrupt) — rerunning could
	// still decide the chunk.
	CauseCancelled
	// CauseTimeout: the chunk's wall-clock budget expired.
	CauseTimeout
	// CauseConflictBudget: the chunk's conflict budget was exhausted.
	CauseConflictBudget
	// CauseMemory: the chunk's memory budget was exhausted — either the
	// solver's own live-byte accounting crossed Options.MemBudgetMB after
	// emergency learnt-DB shrinking, or an external RSS watchdog aborted
	// the solve before the OOM-killer could.
	CauseMemory
)

func (c StopCause) String() string {
	switch c {
	case CauseCancelled:
		return "cancelled"
	case CauseTimeout:
		return "timeout"
	case CauseConflictBudget:
		return "conflict-budget"
	case CauseMemory:
		return "memory"
	default:
		return ""
	}
}

// ParseStopCause inverts String; unrecognised input maps to CauseNone.
func ParseStopCause(s string) StopCause {
	switch s {
	case "cancelled":
		return CauseCancelled
	case "timeout":
		return CauseTimeout
	case "conflict-budget":
		return CauseConflictBudget
	case "memory":
		return CauseMemory
	default:
		return CauseNone
	}
}

// Budgeted reports whether the cause is a deterministic budget
// exhaustion (timeout, conflict budget, or memory budget) rather than
// cancellation — the distinction between "this chunk is known-hard
// under the current budgets" and "this chunk simply was not finished".
func (c StopCause) Budgeted() bool {
	return c == CauseTimeout || c == CauseConflictBudget || c == CauseMemory
}

// Merge returns the more severe of two causes, in the one order every
// layer reports by: memory > timeout > conflict-budget > cancelled >
// none. Memory dominates so the coordinator's memory retry policy sees
// it; a run that hit the wall clock anywhere is wall-clock bound.
func (c StopCause) Merge(d StopCause) StopCause {
	if d.severity() > c.severity() {
		return d
	}
	return c
}

func (c StopCause) severity() int {
	switch c {
	case CauseMemory:
		return 4
	case CauseTimeout:
		return 3
	case CauseConflictBudget:
		return 2
	case CauseCancelled:
		return 1
	}
	return 0
}

// Stats collects search statistics. The decision/depth/backjump counters
// correspond to the quantities visualised in Figure 6 of the paper; the
// learnt-DB and LBD fields feed the performance observatory (sampler,
// hardness score, parbmc_lbd_bucket export — see introspect.go).
type Stats struct {
	Decisions    int64
	Conflicts    int64
	Propagations int64
	Restarts     int64
	MaxDepth     int   // maximal decision level reached
	Backjumps    int64 // non-chronological backtracks (jump of >1 level)
	Learnt       int64 // learnt clauses added
	LearntLits   int64 // total literals in learnt clauses
	Minimised    int64 // literals removed by conflict-clause minimisation
	Simplified   int64 // clauses removed by the preprocessor
	ElimVars     int64 // variables eliminated by the preprocessor

	// LearntDeleted counts learnt clauses discarded by reduceDB. Together
	// with Learnt it bounds the live learnt-DB churn: a high
	// deleted/learnt ratio means the solver keeps throwing work away.
	LearntDeleted int64

	// LearntDB is the learnt-clause database size at the last snapshot
	// (Progress-callback cadence and Solve return). A level, not a
	// total, but Add still sums it: the aggregate of an ensemble is the
	// combined clause-database footprint across its instances.
	LearntDB int64

	// LBDHist is the distribution of learnt-clause LBD ("glue") values
	// over fixed buckets (see LBDBounds). Low-LBD mass is the classic
	// signal that learning is productive; Add sums bucket-wise.
	LBDHist LBDHistogram

	// Progress is the latest search-progress estimate in [0,1]
	// (ProgressEstimate), refreshed at the Progress-callback cadence and
	// when Solve returns. Unlike the counters it is a level, not a
	// total: Add takes the maximum, reporting the furthest-along
	// instance of an aggregate.
	Progress float64

	// MemBytes is the solver's approximate live footprint (clause
	// arenas, learnt DB, watches, per-variable state) at the last
	// snapshot, same cadence as LearntDB. Like LearntDB it is a level
	// that Add sums: the aggregate is the combined footprint of the
	// ensemble.
	MemBytes int64

	// PeakMemBytes is the high-water mark of MemBytes over the solve.
	// Add sums it too — peaks of concurrent instances can coincide, so
	// the sum is the safe (worst-case) combined peak.
	PeakMemBytes int64

	// MemShrinks counts emergency learnt-DB reductions forced by the
	// memory budget (degrade-before-dying events), as opposed to the
	// ordinary size-triggered reduceDB cadence.
	MemShrinks int64
}

// Add accumulates o into s. The aggregation laws (locked in by
// TestStatsAddLaws):
//
//   - counters sum: Decisions, Conflicts, Propagations, Restarts,
//     Backjumps, Learnt, LearntLits, Minimised, Simplified, ElimVars,
//     LearntDeleted, MemShrinks, and the footprint levels LearntDB,
//     MemBytes, PeakMemBytes (combined ensemble footprint), plus
//     LBDHist bucket-wise;
//   - MaxDepth and Progress take the maximum (deepest / furthest-along
//     instance of the aggregate).
//
// Used to aggregate per-instance statistics across parallel, portfolio
// and distributed runs.
func (s *Stats) Add(o Stats) {
	s.Decisions += o.Decisions
	s.Conflicts += o.Conflicts
	s.Propagations += o.Propagations
	s.Restarts += o.Restarts
	if o.MaxDepth > s.MaxDepth {
		s.MaxDepth = o.MaxDepth
	}
	s.Backjumps += o.Backjumps
	s.Learnt += o.Learnt
	s.LearntLits += o.LearntLits
	s.Minimised += o.Minimised
	s.Simplified += o.Simplified
	s.ElimVars += o.ElimVars
	s.LearntDeleted += o.LearntDeleted
	s.LearntDB += o.LearntDB
	s.MemBytes += o.MemBytes
	s.PeakMemBytes += o.PeakMemBytes
	s.MemShrinks += o.MemShrinks
	s.LBDHist.Merge(o.LBDHist)
	if o.Progress > s.Progress {
		s.Progress = o.Progress
	}
}

// Options configures a Solver.
type Options struct {
	// VarDecay is the VSIDS activity decay factor (default 0.95).
	VarDecay float64
	// ClauseDecay is the learnt-clause activity decay factor (default 0.999).
	ClauseDecay float64
	// RestartBase is the Luby restart unit in conflicts (default 100).
	RestartBase int
	// PhaseSaving enables progress saving of variable polarities (default true,
	// disabled by setting NoPhaseSaving).
	NoPhaseSaving bool
	// InitialPolarity is the polarity used for never-assigned variables.
	InitialPolarity bool
	// RandomizeFreq in [0,1) decides with random polarity/variable with the
	// given frequency; used for portfolio diversification (default 0).
	RandomizeFreq float64
	// Seed seeds the diversification RNG.
	Seed uint64
	// MaxConflicts bounds the total number of conflicts (0 = unbounded).
	MaxConflicts int64
	// MemBudgetMB bounds the solver's approximate live footprint in
	// mebibytes (0 = unbounded). When the accounting crosses the budget
	// at a conflict boundary the solver first degrades — emergency
	// learnt-DB shrinks — and only if still over budget stops with
	// (Unknown, ErrMemBudget), the memory analogue of MaxConflicts.
	MemBudgetMB int64
	// NoPreprocess disables the inprocessing-free preprocessor pipeline when
	// solving through SolveFormula helpers (the Solver itself never
	// preprocesses implicitly).
	NoPreprocess bool
	// ProgressEvery invokes the solver's Progress callback every this
	// many conflicts (0 disables; see Solver.Progress). The disabled
	// path costs a single nil check per conflict.
	ProgressEvery int64
}

func (o *Options) setDefaults() {
	if o.VarDecay == 0 {
		o.VarDecay = 0.95
	}
	if o.ClauseDecay == 0 {
		o.ClauseDecay = 0.999
	}
	if o.RestartBase == 0 {
		o.RestartBase = 100
	}
}

// cref is a clause reference: the offset of the clause's header word in
// the solver's clause arena.
type cref uint32

const crefUndef cref = math.MaxUint32

// Clause arena layout (MiniSat 2.2's). All clauses live back to back in
// one []uint32. A clause at ref c occupies
//
//	ca[c]                    header: size<<2 | learnt<<1 | deleted
//	ca[c+1 : c+1+size]       literals, as uint32(cnf.Lit)
//
// and a learnt clause three more words after its literals:
//
//	ca[c+1+size]             LBD
//	ca[c+2+size : c+4+size]  activity, float64 bits, low word first
//
// Only learnt clauses are ranked by reduceDB, so only they carry (and
// bump) an activity. Deleted clauses stay in place, counted in wasted,
// until reduceDB compacts the arena.
const (
	hdrDeleted   = 1
	hdrLearnt    = 2
	hdrSizeShift = 2
	learntExtra  = 3

	// maxClauseSize is what the header's size field holds; maxArena
	// keeps every clause ref below crefUndef.
	maxClauseSize = 1<<(32-hdrSizeShift) - 1
	maxArena      = uint64(crefUndef)
	// maxVar is the largest variable whose literals fit a uint32.
	maxVar = math.MaxUint32 >> 1
)

// ErrTooLarge is returned by Solve when the clause set does not fit the
// solver's 32-bit layout: a variable above 2^31-1, whose literal does
// not fit a uint32, or a clause arena beyond 2^32 words. The clauses
// or assumptions concerned are rejected, not added; SolveCtx reports
// the stop as CauseMemory, a terminal resource exhaustion.
var ErrTooLarge = errors.New("sat: formula exceeds the solver's 32-bit literal or clause-arena limit")

// watcher is one entry of a watch list: the clause and a blocker, a
// literal of the clause whose truth lets propagation skip the visit.
type watcher struct {
	cref    cref
	blocker uint32
}

// Approximate per-object byte costs for the live-footprint accounting.
// They deliberately over-count (allocator slack, watch-list growth) so
// the budget errs on the safe side; the goal is a stable, deterministic
// estimate, not malloc-exact numbers. They were sized for a layout of
// one heap object per clause and 8-byte literals, which the arena
// undercuts; they stay as they are so that every MemBudgetMB threshold
// keeps its meaning.
const (
	litBytes = 8
	// clauseOverheadBytes: a clause's header and slot in clauses or
	// learnts, its two watcher entries, and per-clause slack.
	clauseOverheadBytes = 120
	// varOverheadBytes: per-variable state across watches (two slice
	// headers), values/level/reason/polarity/frozen/activity/seen, the
	// heap entry, and amortised trail capacity.
	varOverheadBytes = 128
)

func clauseBytes(nlits int) int64 {
	return clauseOverheadBytes + int64(nlits)*litBytes
}

const (
	lUndef int8 = 0
	lTrue  int8 = 1
	lFalse int8 = -1
)

// Solver is a CDCL SAT solver. The zero value is not usable; construct
// with New or NewFromFormula.
type Solver struct {
	opts Options

	numVars int
	ok      bool  // false once the clause set is known inconsistent
	err     error // ErrTooLarge once a clause or variable was rejected

	ca      []uint32 // clause arena (see cref)
	wasted  int      // arena words held by deleted clauses
	clauses []cref
	learnts []cref

	watches [][]watcher // indexed by cnf.Lit

	vals     []int8 // per literal: lTrue/lFalse/lUndef
	level    []int
	reason   []cref
	polarity []bool // saved phase per variable
	frozen   []bool // assumption-frozen variables (paper Sect. 3.3)

	trail    []cnf.Lit
	trailLim []int
	qhead    int

	activity []float64
	varInc   float64
	claInc   float64
	order    varHeap

	// Scratch buffers, reused across calls.
	seen      []byte
	analyzeTs []cnf.Lit  // literals marked seen by minimisation
	learntBuf []cnf.Lit  // the clause analyze returns
	redStack  []cnf.Lit  // litRedundant's walk
	addBuf    cnf.Clause // AddClause's normalisation
	lbdStamp  []uint64   // per decision level: lbdGen of its last count
	lbdGen    uint64

	model []int8 // last satisfying assignment (per variable)

	stats Stats
	graph *DecisionGraph
	proof *Proof

	// liveBytes / peakBytes approximate the solver's live footprint
	// (see clauseBytes/varOverheadBytes); maintained incrementally on
	// clause add/learn/delete and variable growth. Only touched from
	// the solving goroutine.
	liveBytes int64
	peakBytes int64

	interrupt atomic.Bool
	// memInterrupt marks an interrupt raised by an external memory
	// watchdog (InterruptMemory): the solve stops with ErrMemBudget
	// instead of ErrInterrupted, so the layers above classify it as
	// terminal budget exhaustion, not retryable cancellation.
	memInterrupt atomic.Bool
	rngState     uint64

	// ShareLearnt, if non-nil, is invoked for every learnt clause whose LBD
	// is at most ShareMaxLBD; used by the portfolio baselines for clause
	// exchange. The callback must not retain the slice.
	ShareLearnt func(lits []cnf.Lit, lbd int)
	ShareMaxLBD int
	// Import, if non-nil, is polled at every restart for foreign clauses to
	// add. It must return clauses over existing variables.
	Import func() [][]cnf.Lit
	// Progress, if non-nil and Options.ProgressEvery > 0, receives a
	// snapshot of the search statistics every ProgressEvery conflicts,
	// from the solving goroutine. It must be fast and must not call back
	// into the solver; used for live conflict/propagation-rate reporting
	// in parallel, portfolio and distributed runs.
	Progress func(Stats)
}

// New creates a solver with the given number of variables.
func New(numVars int, opts Options) *Solver {
	opts.setDefaults()
	s := &Solver{
		opts:     opts,
		ok:       true,
		varInc:   1,
		claInc:   1,
		rngState: opts.Seed*2654435761 + 88172645463325252,
	}
	s.growTo(numVars)
	return s
}

// NewFromFormula creates a solver and loads every clause of f.
func NewFromFormula(f *cnf.Formula, opts Options) *Solver {
	s := New(f.NumVars, opts)
	for _, c := range f.Clauses {
		s.AddClause(c...)
	}
	return s
}

// growTo extends the variable set to n. A variable beyond maxVar is
// refused, and the solver remembers ErrTooLarge.
func (s *Solver) growTo(n int) bool {
	if n > maxVar {
		s.err = ErrTooLarge
		return false
	}
	for s.numVars < n {
		s.numVars++
		s.level = append(s.level, 0)
		s.reason = append(s.reason, crefUndef)
		s.polarity = append(s.polarity, s.opts.InitialPolarity)
		s.frozen = append(s.frozen, false)
		s.activity = append(s.activity, 0)
		s.seen = append(s.seen, 0)
		s.order.push(cnf.Var(s.numVars), &s.activity)
		s.addMem(varOverheadBytes)
	}
	// Literal-indexed arrays start at 2 for variable 1; decision levels
	// run from 0 to numVars.
	for len(s.watches) < 2*(s.numVars+1) {
		s.watches = append(s.watches, nil)
		s.vals = append(s.vals, lUndef)
	}
	for len(s.lbdStamp) < s.numVars+1 {
		s.lbdStamp = append(s.lbdStamp, 0)
	}
	return true
}

// NumVars returns the number of variables known to the solver.
func (s *Solver) NumVars() int { return s.numVars }

// Stats returns a snapshot of the search statistics.
func (s *Solver) Stats() Stats { return s.stats }

// ProgressEstimate is a cheap "how far along is the search" signal in
// [0,1]: MiniSat's progress estimate, a weighted sum over the decision
// trail where assignments at level i contribute with weight (1/V)^i
// (V = variable count). Level-0 assignments — permanently decided —
// dominate, so the estimate grows as the solver proves out top-level
// facts; deeper, more speculative assignments contribute geometrically
// less. It is not monotone (restarts and backjumps can lower it), but
// averaged over heartbeat intervals it orders partitions by how close
// they are to a verdict, which is the signal partition splitting keys
// on. Must be called from the solving goroutine (it reads the trail).
func (s *Solver) ProgressEstimate() float64 {
	if s.numVars == 0 {
		return 1
	}
	progress := 0.0
	f := 1.0 / float64(s.numVars)
	weight := 1.0
	for i := 0; i <= s.decisionLevel(); i++ {
		beg := 0
		if i > 0 {
			beg = s.trailLim[i-1]
		}
		end := len(s.trail)
		if i < s.decisionLevel() {
			end = s.trailLim[i]
		}
		progress += weight * float64(end-beg)
		weight *= f
	}
	return progress / float64(s.numVars)
}

// Interrupt asynchronously cancels an in-flight Solve, which will return
// (Unknown, ErrInterrupted). Safe to call from other goroutines.
func (s *Solver) Interrupt() { s.interrupt.Store(true) }

// InterruptMemory asynchronously aborts an in-flight Solve with memory
// exhaustion: Solve returns (Unknown, ErrMemBudget) instead of
// ErrInterrupted, so callers journal the chunk as a terminal
// memory-budget Unknown. Used by external RSS watchdogs that see the
// whole process approaching its limit. Safe to call from other
// goroutines.
func (s *Solver) InterruptMemory() {
	s.memInterrupt.Store(true)
	s.interrupt.Store(true)
}

// Interrupted reports whether the solver has been cancelled.
func (s *Solver) Interrupted() bool { return s.interrupt.Load() }

// ClearInterrupt re-arms the solver after an interrupt so it can be
// solved again (MiniSat's clearInterrupt). It must not be called
// concurrently with a Solve the caller still wants interrupted; the
// usual sequence is Solve → ErrInterrupted → ClearInterrupt → Solve.
func (s *Solver) ClearInterrupt() {
	s.interrupt.Store(false)
	s.memInterrupt.Store(false)
}

// LiveBytes returns the solver's current approximate live footprint.
func (s *Solver) LiveBytes() int64 { return s.liveBytes }

// PeakBytes returns the high-water mark of LiveBytes over the solver's
// lifetime.
func (s *Solver) PeakBytes() int64 { return s.peakBytes }

func (s *Solver) addMem(n int64) {
	s.liveBytes += n
	if s.liveBytes > s.peakBytes {
		s.peakBytes = s.liveBytes
	}
}

func (s *Solver) valueVar(v cnf.Var) int8 { return s.vals[cnf.PosLit(v)] }

func (s *Solver) valueLit(l cnf.Lit) int8 { return s.vals[l] }

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// lits returns the literals of clause c, aliasing the arena.
func (s *Solver) lits(c cref) []uint32 {
	return s.ca[c+1 : c+1+cref(s.ca[c]>>hdrSizeShift)]
}

func (s *Solver) isLearnt(c cref) bool { return s.ca[c]&hdrLearnt != 0 }

// extra returns the index of learnt clause c's LBD word; its activity
// follows.
func (s *Solver) extra(c cref) cref { return c + 1 + cref(s.ca[c]>>hdrSizeShift) }

func (s *Solver) clauseLBD(c cref) int { return int(s.ca[s.extra(c)]) }

func (s *Solver) clauseAct(c cref) float64 {
	i := s.extra(c) + 1
	return math.Float64frombits(uint64(s.ca[i]) | uint64(s.ca[i+1])<<32)
}

func (s *Solver) setClauseAct(c cref, act float64) {
	i, bits := s.extra(c)+1, math.Float64bits(act)
	s.ca[i], s.ca[i+1] = uint32(bits), uint32(bits>>32)
}

// clauseWords is the number of arena words of the clause with header hdr.
func clauseWords(hdr uint32) int {
	n := 1 + int(hdr>>hdrSizeShift)
	if hdr&hdrLearnt != 0 {
		n += learntExtra
	}
	return n
}

// alloc appends a clause of two or more literals to the arena. A clause
// that would not fit the 32-bit layout is refused with ErrTooLarge.
func (s *Solver) alloc(lits []cnf.Lit, learnt bool, lbd int) (cref, bool) {
	hdr := uint32(len(lits)) << hdrSizeShift
	if learnt {
		hdr |= hdrLearnt
	}
	if len(lits) > maxClauseSize || uint64(len(s.ca)+clauseWords(hdr)) > maxArena {
		s.err = ErrTooLarge
		return crefUndef, false
	}
	c := cref(len(s.ca))
	s.ca = append(s.ca, hdr)
	for _, l := range lits {
		s.ca = append(s.ca, uint32(l))
	}
	if learnt {
		s.ca = append(s.ca, uint32(lbd), 0, 0)
	}
	return c, true
}

// AddClause introduces a clause over 1-based variables, growing the
// variable set as needed. It may only be called before Solve or between
// Solve calls (at decision level 0). It returns false if the clause set
// became trivially inconsistent, or if the clause was refused as too
// large for the solver (Solve then reports ErrTooLarge).
func (s *Solver) AddClause(lits ...cnf.Lit) bool {
	if !s.ok || s.err != nil {
		return false
	}
	if s.decisionLevel() != 0 {
		panic("sat: AddClause above decision level 0")
	}
	for _, l := range lits {
		if int(l.Var()) > s.numVars && !s.growTo(int(l.Var())) {
			return false
		}
	}
	s.addBuf = append(s.addBuf[:0], lits...)
	c, taut := s.addBuf.Normalize()
	if taut {
		return true
	}
	// Remove literals already false at level 0; detect satisfied clauses.
	out := c[:0]
	for _, l := range c {
		switch s.valueLit(l) {
		case lTrue:
			return true
		case lUndef:
			out = append(out, l)
		}
	}
	c = out
	switch len(c) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(c[0], crefUndef)
		if s.propagate() != crefUndef {
			s.ok = false
			return false
		}
		return true
	}
	cr, ok := s.alloc(c, false, 0)
	if !ok {
		return false
	}
	s.clauses = append(s.clauses, cr)
	s.attach(cr)
	s.addMem(clauseBytes(len(c)))
	return true
}

func (s *Solver) attach(c cref) {
	lits := s.lits(c)
	l0, l1 := lits[0], lits[1]
	s.watches[l0^1] = append(s.watches[l0^1], watcher{c, l1})
	s.watches[l1^1] = append(s.watches[l1^1], watcher{c, l0})
}

func (s *Solver) uncheckedEnqueue(l cnf.Lit, from cref) {
	s.vals[l] = lTrue
	s.vals[l^1] = lFalse
	v := l.Var()
	s.level[v-1] = s.decisionLevel()
	s.reason[v-1] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; it returns the conflicting clause
// or crefUndef.
func (s *Solver) propagate() cref {
	// Propagation moves literals inside clauses but never allocates one,
	// so the arena and value slices stay put for the whole call.
	ca, vals := s.ca, s.vals
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.stats.Propagations++
		falseLit := uint32(p) ^ 1
		ws := s.watches[p]
		i, n := 0, 0
	nextWatcher:
		for i < len(ws) {
			w := ws[i]
			i++
			if vals[w.blocker] == lTrue {
				ws[n] = w
				n++
				continue
			}
			c := w.cref
			lits := ca[c+1 : c+1+cref(ca[c]>>hdrSizeShift)]
			// Ensure the false literal is at position 1.
			if lits[0] == falseLit {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && vals[first] == lTrue {
				ws[n] = watcher{c, first}
				n++
				continue
			}
			// Look for a new literal to watch.
			for k := 2; k < len(lits); k++ {
				if vals[lits[k]] != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					idx := lits[1] ^ 1
					s.watches[idx] = append(s.watches[idx], watcher{c, first})
					continue nextWatcher
				}
			}
			// Clause is unit or conflicting.
			ws[n] = watcher{c, first}
			n++
			if vals[first] == lFalse {
				// Conflict: keep the unvisited watchers and bail out.
				n += copy(ws[n:], ws[i:])
				s.watches[p] = ws[:n]
				s.qhead = len(s.trail)
				return c
			}
			s.uncheckedEnqueue(cnf.Lit(first), c)
		}
		s.watches[p] = ws[:n]
	}
	return crefUndef
}

func (s *Solver) newDecisionLevel() {
	s.trailLim = append(s.trailLim, len(s.trail))
}

func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	bound := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= bound; i-- {
		l := s.trail[i]
		v := l.Var()
		if !s.opts.NoPhaseSaving {
			s.polarity[v-1] = !l.Neg()
		}
		s.vals[l] = lUndef
		s.vals[l^1] = lUndef
		s.reason[v-1] = crefUndef
		s.order.insert(v, &s.activity)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

func (s *Solver) bumpVar(v cnf.Var) {
	s.activity[v-1] += s.varInc
	if s.activity[v-1] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v, &s.activity)
}

func (s *Solver) decayVar() { s.varInc /= s.opts.VarDecay }

// bumpClause raises a learnt clause's activity. Original clauses are
// never ranked, so they carry no activity and are left alone, as in
// MiniSat: bumping them would rescale every learnt clause on each bump
// once one original clause passed the rescale threshold, driving claInc
// and all learnt activities to zero.
func (s *Solver) bumpClause(c cref) {
	if !s.isLearnt(c) {
		return
	}
	act := s.clauseAct(c) + s.claInc
	s.setClauseAct(c, act)
	if act > 1e20 {
		for _, l := range s.learnts {
			s.setClauseAct(l, s.clauseAct(l)*1e-20)
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) decayClause() { s.claInc /= s.opts.ClauseDecay }

func (s *Solver) rand() uint64 {
	// xorshift64*
	x := s.rngState
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	s.rngState = x
	return x * 2685821657736338717
}

func (s *Solver) randFloat() float64 {
	return float64(s.rand()>>11) / float64(1<<53)
}

func (s *Solver) pickBranchLit() cnf.Lit {
	if s.opts.RandomizeFreq > 0 && s.randFloat() < s.opts.RandomizeFreq {
		// Random decision among unassigned variables (diversification).
		for tries := 0; tries < 10; tries++ {
			v := cnf.Var(1 + s.rand()%uint64(s.numVars))
			if s.valueVar(v) == lUndef {
				return cnf.MkLit(v, s.rand()&1 == 0)
			}
		}
	}
	for {
		v, ok := s.order.popMax(&s.activity)
		if !ok {
			return cnf.LitUndef
		}
		if s.valueVar(v) == lUndef {
			return cnf.MkLit(v, !s.polarity[v-1])
		}
	}
}

// analyze performs first-UIP conflict analysis and returns the learnt
// clause (asserting literal first), the backtrack level and the LBD.
// The clause aliases a scratch buffer that the next call reuses.
func (s *Solver) analyze(confl cref) ([]cnf.Lit, int, int) {
	learnt := append(s.learntBuf[:0], cnf.LitUndef)
	counter := 0
	p := cnf.LitUndef
	idx := len(s.trail) - 1

	for {
		s.bumpClause(confl)
		for _, q := range s.lits(confl) {
			ql := cnf.Lit(q)
			if ql == p {
				continue
			}
			v := ql.Var()
			if s.seen[v-1] == 0 && s.level[v-1] > 0 {
				s.seen[v-1] = 1
				s.bumpVar(v)
				if s.level[v-1] >= s.decisionLevel() {
					counter++
				} else {
					learnt = append(learnt, ql)
				}
			}
		}
		for s.seen[s.trail[idx].Var()-1] == 0 {
			idx--
		}
		p = s.trail[idx]
		confl = s.reason[p.Var()-1]
		s.seen[p.Var()-1] = 0
		idx--
		counter--
		if counter == 0 {
			break
		}
	}
	learnt[0] = p.Not()

	// Recursive conflict-clause minimisation.
	s.analyzeTs = append(s.analyzeTs[:0], learnt[1:]...)
	var levels uint32
	for _, l := range learnt[1:] {
		levels |= s.abstractLevel(l.Var())
	}
	out := learnt[:1]
	removed := 0
	for _, l := range learnt[1:] {
		if s.reason[l.Var()-1] == crefUndef || !s.litRedundant(l, levels) {
			out = append(out, l)
		} else {
			removed++
		}
	}
	s.stats.Minimised += int64(removed)
	learnt = out
	s.learntBuf = learnt

	// Clear seen flags for the surviving and scratch literals.
	for _, l := range s.analyzeTs {
		s.seen[l.Var()-1] = 0
	}
	for _, l := range learnt {
		s.seen[l.Var()-1] = 0
	}

	// Find backtrack level: the maximal level among learnt[1:].
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()-1] > s.level[learnt[maxI].Var()-1] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = s.level[learnt[1].Var()-1]
	}

	return learnt, btLevel, s.computeLBD(learnt)
}

// computeLBD counts the distinct decision levels of lits, stamping each
// level with a fresh generation instead of building a set.
func (s *Solver) computeLBD(lits []cnf.Lit) int {
	s.lbdGen++
	n := 0
	for _, l := range lits {
		lv := s.level[l.Var()-1]
		if s.lbdStamp[lv] != s.lbdGen {
			s.lbdStamp[lv] = s.lbdGen
			n++
		}
	}
	return n
}

// abstractLevel hashes v's decision level into one of 32 bits, so a set
// of levels is a bitmask with no false negatives.
func (s *Solver) abstractLevel(v cnf.Var) uint32 {
	return 1 << (uint(s.level[v-1]) & 31)
}

// litRedundant checks whether l is implied by the other literals marked in
// seen, walking the implication graph (MiniSat's ccmin). levels is the
// abstract-level mask of the learnt clause: a literal at a level outside
// it cannot be implied by the clause, so the walk fails there at once.
func (s *Solver) litRedundant(l cnf.Lit, levels uint32) bool {
	stack := append(s.redStack[:0], l)
	top := len(s.analyzeTs)
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, q := range s.lits(s.reason[p.Var()-1]) {
			ql := cnf.Lit(q)
			v := ql.Var()
			if v == p.Var() || s.seen[v-1] != 0 || s.level[v-1] == 0 {
				continue
			}
			if s.reason[v-1] == crefUndef || s.abstractLevel(v)&levels == 0 {
				// Not redundant: undo the tentative marks.
				for _, m := range s.analyzeTs[top:] {
					s.seen[m.Var()-1] = 0
				}
				s.analyzeTs = s.analyzeTs[:top]
				s.redStack = stack
				return false
			}
			s.seen[v-1] = 1
			s.analyzeTs = append(s.analyzeTs, ql)
			stack = append(stack, ql)
		}
	}
	s.redStack = stack
	return true
}

// recordLearnt logs, shares and stores a learnt clause, returning its
// ref (crefUndef for a unit, or when the arena is full).
func (s *Solver) recordLearnt(lits []cnf.Lit, lbd int) cref {
	s.stats.Learnt++
	s.stats.LearntLits += int64(len(lits))
	s.stats.LBDHist.Observe(lbd)
	if s.proof != nil {
		s.proof.Lemmas = append(s.proof.Lemmas, append(cnf.Clause{}, lits...))
	}
	if s.ShareLearnt != nil && lbd <= s.ShareMaxLBD && len(lits) > 1 {
		cp := make([]cnf.Lit, len(lits))
		copy(cp, lits)
		s.ShareLearnt(cp, lbd)
	}
	if len(lits) == 1 {
		return crefUndef
	}
	c, ok := s.alloc(lits, true, lbd)
	if !ok {
		return crefUndef
	}
	s.learnts = append(s.learnts, c)
	s.attach(c)
	s.bumpClause(c)
	s.addMem(clauseBytes(len(lits)))
	return c
}

func (s *Solver) reduceDB() {
	if len(s.learnts) < 2 {
		return
	}
	sort.Slice(s.learnts, func(i, j int) bool {
		// Keep high-activity, low-LBD clauses.
		a, b := s.learnts[i], s.learnts[j]
		if (s.clauseLBD(a) <= 2) != (s.clauseLBD(b) <= 2) {
			return s.clauseLBD(b) <= 2
		}
		return s.clauseAct(a) < s.clauseAct(b)
	})
	limit := len(s.learnts) / 2
	kept := s.learnts[:0]
	removed := 0
	for i, c := range s.learnts {
		if n := len(s.lits(c)); i < limit && n > 2 && !s.isReason(c) {
			s.detach(c)
			s.ca[c] |= hdrDeleted
			s.wasted += clauseWords(s.ca[c])
			s.addMem(-clauseBytes(n))
			removed++
		} else {
			kept = append(kept, c)
		}
	}
	s.learnts = kept
	s.stats.LearntDeleted += int64(removed)
	if s.wasted*5 > len(s.ca) {
		s.compact()
	}
}

// compact copies the live clauses into a fresh arena, in arena order, and
// rewrites every ref in place: watch lists and the literals of each
// clause keep their order, so compaction never changes the search.
func (s *Solver) compact() {
	to := make([]uint32, 0, len(s.ca)-s.wasted)
	for c := 0; c < len(s.ca); {
		hdr := s.ca[c]
		n := clauseWords(hdr)
		if hdr&hdrDeleted == 0 {
			// The old copy's first literal becomes its forwarding ref.
			to = append(to, s.ca[c:c+n]...)
			s.ca[c+1] = uint32(len(to) - n)
		}
		c += n
	}
	moved := func(c cref) cref { return cref(s.ca[c+1]) }
	for _, ws := range s.watches {
		for i := range ws {
			ws[i].cref = moved(ws[i].cref)
		}
	}
	for i, r := range s.reason {
		if r != crefUndef {
			s.reason[i] = moved(r)
		}
	}
	for i, c := range s.clauses {
		s.clauses[i] = moved(c)
	}
	for i, c := range s.learnts {
		s.learnts[i] = moved(c)
	}
	s.ca, s.wasted = to, 0
}

// overMemBudget reports whether the live footprint exceeds the
// configured memory budget.
func (s *Solver) overMemBudget() bool {
	return s.opts.MemBudgetMB > 0 && s.liveBytes > s.opts.MemBudgetMB<<20
}

// shrinkForMem is the degrade-before-dying step: repeated emergency
// learnt-DB reductions until the footprint is back under budget or the
// DB stops shrinking (everything left is binary, reason, or base
// formula — nothing more can go). Returns true if the budget was
// recovered.
func (s *Solver) shrinkForMem() bool {
	for s.overMemBudget() {
		before := len(s.learnts)
		s.reduceDB()
		if len(s.learnts) == before {
			return false
		}
		s.stats.MemShrinks++
	}
	return true
}

func (s *Solver) isReason(c cref) bool {
	l := cnf.Lit(s.lits(c)[0])
	return s.vals[l] == lTrue && s.reason[l.Var()-1] == c
}

func (s *Solver) detach(c cref) {
	for _, l := range s.lits(c)[:2] {
		ws := s.watches[l^1]
		for i, w := range ws {
			if w.cref == c {
				ws[i] = ws[len(ws)-1]
				s.watches[l^1] = ws[:len(ws)-1]
				break
			}
		}
	}
}

// luby computes the Luby restart sequence value for index i (1-based).
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (int64(1)<<k)-1 {
			return int64(1) << (k - 1)
		}
		if i < (int64(1)<<k)-1 {
			return luby(i - (int64(1) << (k - 1)) + 1)
		}
	}
}

// search runs CDCL until a model is found, the clause set is refuted,
// the conflict budget is exhausted, or the solver is interrupted.
func (s *Solver) search(conflictBudget int64) (Status, error) {
	var conflicts int64
	for {
		if s.interrupt.Load() {
			if s.memInterrupt.Load() {
				return Unknown, ErrMemBudget
			}
			return Unknown, ErrInterrupted
		}
		confl := s.propagate()
		if confl != crefUndef {
			conflicts++
			s.stats.Conflicts++
			if s.Progress != nil && s.opts.ProgressEvery > 0 &&
				s.stats.Conflicts%s.opts.ProgressEvery == 0 {
				s.stats.Progress = s.ProgressEstimate()
				s.stats.LearntDB = int64(len(s.learnts))
				s.stats.MemBytes = s.liveBytes
				s.stats.PeakMemBytes = s.peakBytes
				s.Progress(s.stats)
			}
			if s.decisionLevel() == 0 {
				return Unsat, nil
			}
			learnt, btLevel, lbd := s.analyze(confl)
			if btLevel < s.decisionLevel()-1 {
				s.stats.Backjumps++
			}
			if s.graph != nil {
				s.graph.recordBackjump(btLevel)
			}
			s.cancelUntil(btLevel)
			c := s.recordLearnt(learnt, lbd)
			if s.err != nil {
				s.cancelUntil(0)
				return Unknown, s.err
			}
			s.uncheckedEnqueue(learnt[0], c)
			s.decayVar()
			s.decayClause()
			if s.opts.MaxConflicts > 0 && s.stats.Conflicts >= s.opts.MaxConflicts {
				return Unknown, nil
			}
			// Memory only grows at conflicts (learnt clauses), so the
			// budget check lives at the conflict boundary, like
			// MaxConflicts: degrade first, stop only if that fails.
			if s.overMemBudget() && !s.shrinkForMem() {
				s.cancelUntil(0)
				return Unknown, ErrMemBudget
			}
			continue
		}
		if conflictBudget >= 0 && conflicts >= conflictBudget {
			s.cancelUntil(0)
			return Unknown, nil
		}
		if int64(len(s.learnts)) > int64(len(s.clauses))/2+10000 {
			s.reduceDB()
		}
		next := s.pickBranchLit()
		if next == cnf.LitUndef {
			// All variables assigned: model found.
			s.model = make([]int8, s.numVars)
			for v := range s.model {
				s.model[v] = s.valueVar(cnf.Var(v + 1))
			}
			return Sat, nil
		}
		s.stats.Decisions++
		s.newDecisionLevel()
		if dl := s.decisionLevel(); dl > s.stats.MaxDepth {
			s.stats.MaxDepth = dl
		}
		if s.graph != nil {
			s.graph.recordDecision(s.decisionLevel(), next)
		}
		s.uncheckedEnqueue(next, crefUndef)
	}
}

// Solve decides satisfiability under the given assumptions. Following the
// paper (Sect. 3.3, "Changes to the Propositional Solver"), assumptions are
// converted into unit clauses enqueued at decision level 0, a propagation
// step is forced, and the assigned literals are frozen: level-0 assignments
// are never backtracked, so the solver can never flip them, and they are
// retained across restarts.
//
// Freezing is permanent, exactly as in the paper's prototype (each
// sub-formula gets its own solver process): assumptions accumulate over
// repeated Solve calls on the same instance, and a later call whose
// assumption contradicts a frozen one returns Unsat. To explore
// different partitions, use a fresh Solver per assumption set, as
// package parallel does.
func (s *Solver) Solve(assumptions ...cnf.Lit) (Status, error) {
	if s.err != nil {
		return Unknown, s.err
	}
	if !s.ok {
		return Unsat, nil
	}
	// Stamp the final progress estimate and learnt-DB size so Stats()
	// reflects where the search ended even when it finished between
	// Progress callbacks.
	defer func() {
		s.stats.Progress = s.ProgressEstimate()
		s.stats.LearntDB = int64(len(s.learnts))
		s.stats.MemBytes = s.liveBytes
		s.stats.PeakMemBytes = s.peakBytes
	}()
	s.cancelUntil(0)
	for _, a := range assumptions {
		if int(a.Var()) > s.numVars && !s.growTo(int(a.Var())) {
			return Unknown, s.err
		}
		switch s.valueLit(a) {
		case lTrue:
			continue
		case lFalse:
			return Unsat, nil
		}
		s.frozen[a.Var()-1] = true
		s.uncheckedEnqueue(a, crefUndef)
	}
	// Forced propagation of the assumption units (paper Sect. 3.3): the
	// search then starts on an equisatisfiable but pruned formula.
	if s.propagate() != crefUndef {
		return Unsat, nil
	}

	for restart := int64(1); ; restart++ {
		budget := int64(s.opts.RestartBase) * luby(restart)
		st, err := s.search(budget)
		if err != nil {
			return Unknown, err
		}
		if st != Unknown {
			return st, nil
		}
		if s.opts.MaxConflicts > 0 && s.stats.Conflicts >= s.opts.MaxConflicts {
			return Unknown, nil
		}
		s.stats.Restarts++
		s.cancelUntil(0)
		if s.Import != nil {
			for _, lits := range s.Import() {
				if !s.AddClause(lits...) {
					if s.err != nil {
						return Unknown, s.err
					}
					return Unsat, nil
				}
			}
		}
	}
}

// SolveCtx is Solve under ctx and an optional wall-clock budget
// (timeout 0: none), classified by the one StopCause mapping every
// layer reports. Cancelling ctx interrupts the search. Memory
// exhaustion — the solver's own budget, InterruptMemory or a formula
// too large for the solver (ErrTooLarge) — is CauseMemory. An
// interrupt is CauseTimeout only if the budget expired while ctx was
// live: when the timer races a cancellation, cancelled — the verdict
// that claims no budget was exhausted — wins. An Unknown without error
// is the exhausted conflict budget.
func (s *Solver) SolveCtx(ctx context.Context, timeout time.Duration, assumptions ...cnf.Lit) (Status, StopCause) {
	defer context.AfterFunc(ctx, s.Interrupt)()
	var timedOut atomic.Bool
	if timeout > 0 {
		timer := time.AfterFunc(timeout, func() {
			timedOut.Store(true)
			s.Interrupt()
		})
		defer timer.Stop()
	}
	status, err := s.Solve(assumptions...)
	switch {
	case errors.Is(err, ErrMemBudget), errors.Is(err, ErrTooLarge):
		return Unknown, CauseMemory
	case errors.Is(err, ErrInterrupted):
		if timedOut.Load() && ctx.Err() == nil {
			return Unknown, CauseTimeout
		}
		return Unknown, CauseCancelled
	case status == Unknown:
		return Unknown, CauseConflictBudget
	}
	return status, CauseNone
}

// Model returns the satisfying assignment found by the last successful
// Solve. Index v-1 holds the value of variable v. Variables never assigned
// (possible after preprocessing) are reported as false.
func (s *Solver) Model() []bool {
	out := make([]bool, s.numVars)
	for i, v := range s.model {
		out[i] = v == lTrue
	}
	return out
}

// ModelValue returns the model value of a literal.
func (s *Solver) ModelValue(l cnf.Lit) bool {
	v := s.model[l.Var()-1] == lTrue
	if l.Neg() {
		return !v
	}
	return v
}

// Frozen reports whether a variable was frozen by an assumption.
func (s *Solver) Frozen(v cnf.Var) bool {
	if int(v) > s.numVars {
		return false
	}
	return s.frozen[v-1]
}
