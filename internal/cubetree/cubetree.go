// Package cubetree is the one scheduling engine behind every execution
// path: the in-process parallel solver, the distributed coordinator, and
// journal resume. A run is a forest of cubes (partition.Cube), one root
// per static work unit. Executors pull cubes from the queue; an idle
// executor that finds the queue empty may split a straggling cube on its
// next unfixed bit (taking one child itself — work stealing by
// construction) or hedge a duplicate of a long-running one. A static run
// is the same tree with splitting and hedging off.
//
// The tree is a pure state machine: it performs no I/O, reads the clock
// only through the now arguments its callers pass, and hands
// cancellation to the executor through the callback given to New. The
// executor owns the solving, the journal writes and the real timers
// (see Wait).
//
// Supersession is the soundness fence: the moment a cube is reserved for
// splitting (or one of its assignments wins a race), every other
// assignment of that cube is superseded — its result, whenever it
// arrives, loses Claim and must be discarded without touching the
// journal, the run state, or any attempt budget. Together with the rule
// that an executor commits the SPLIT record before calling CompleteSplit
// and a verdict only after winning Claim, at most one terminal record
// ever commits per live leaf.
package cubetree

import (
	"sync"
	"time"

	"repro/internal/partition"
)

// Config holds the splitting and hedging policy.
type Config struct {
	// SplitDepth caps how many extra path bits a single partition may
	// accumulate; 0 disables splitting.
	SplitDepth int
	// SplitBits is how many path bits the encoding can supply
	// (len(partition.SplitLits)).
	SplitBits int
	// SplitGrace is how long an assignment must have been running before
	// it qualifies as a split victim or a hedge candidate (default 15s).
	SplitGrace time.Duration
	// SplitHardness is the minimum live hardness (see Note) a split
	// victim needs; 0 makes the grace alone the trigger.
	SplitHardness float64
	// Hedge enables speculative duplicates of long-running cubes.
	Hedge bool
}

// state is the lifecycle of one assignment.
type state int

const (
	// running: dispatched, result pending.
	running state = iota
	// claimed: its result was accepted as the cube's verdict.
	claimed
	// superseded: the cube was split, a twin won the race, or the
	// assignment was released; any result from it is stale.
	superseded
)

// Assignment is one cube handed to one executor.
type Assignment[H any] struct {
	// ID is unique within the tree (the distributed job ID).
	ID int
	// Cube is the work unit.
	Cube partition.Cube
	// Worker names the executor that acquired it; a cube is never
	// hedged onto the worker already running it.
	Worker string
	// Handle is the executor's cancellation handle (a solver slot
	// in-process, a connection in distrib).
	Handle H
	// Started is the acquisition time.
	Started time.Time
	// Hedge marks a speculative duplicate of an already-running cube.
	Hedge bool

	state state
}

// Stats are the tree's counters.
type Stats struct {
	// Splits counts completed splits; Steals those whose child went to
	// a worker other than the victim's; Hedges counts duplicate
	// dispatches; Superseded counts assignments retired without
	// winning (split victims, hedge losers, released attempts of a
	// superseded cube). MaxDepth is the deepest cube path dispatched.
	Splits, Hedges, Steals, Superseded, MaxDepth int
}

// Tree is the cube-tree state machine. Its methods are safe for
// concurrent use.
type Tree[H any] struct {
	cfg    Config
	cancel func(*Assignment[H])

	mu sync.Mutex
	// changed is closed (and replaced) on every event that can give an
	// idle executor something to do or let it exit.
	changed chan struct{}

	queue    []partition.Cube
	inflight map[int]*Assignment[H]
	// decided marks cubes whose verdict was claimed; split marks cubes
	// replaced by their children; splitting is the window between
	// victim selection and CompleteSplit/AbortSplit, in which claims
	// already lose.
	decided, split, splitting map[partition.Cube]bool
	// hardness is the latest live hardness per running cube.
	hardness map[partition.Cube]float64
	// outstanding counts live leaves neither decided nor dropped.
	outstanding int
	nextID      int
	stats       Stats
}

// defaultGrace is what a zero (or negative) Config.SplitGrace means.
const defaultGrace = 15 * time.Second

// New builds an empty tree. cancel, when non-nil, is invoked outside
// the tree's lock for every running assignment a split or a won race
// supersedes.
func New[H any](cfg Config, cancel func(*Assignment[H])) *Tree[H] {
	if cfg.SplitGrace <= 0 {
		cfg.SplitGrace = defaultGrace
	}
	if cancel == nil {
		cancel = func(*Assignment[H]) {}
	}
	return &Tree[H]{
		cfg:       cfg,
		cancel:    cancel,
		changed:   make(chan struct{}),
		inflight:  make(map[int]*Assignment[H]),
		decided:   make(map[partition.Cube]bool),
		split:     make(map[partition.Cube]bool),
		splitting: make(map[partition.Cube]bool),
		hardness:  make(map[partition.Cube]float64),
	}
}

// signalLocked wakes every executor blocked on the current wake channel.
func (t *Tree[H]) signalLocked() {
	close(t.changed)
	t.changed = make(chan struct{})
}

// Enqueue adds an undecided leaf to the tree and the queue.
func (t *Tree[H]) Enqueue(c partition.Cube) {
	t.mu.Lock()
	t.outstanding++
	t.queue = append(t.queue, c)
	t.signalLocked()
	t.mu.Unlock()
}

// Requeue puts back a leaf whose assignment Release returned for
// another attempt.
func (t *Tree[H]) Requeue(c partition.Cube) {
	t.mu.Lock()
	t.queue = append(t.queue, c)
	t.signalLocked()
	t.mu.Unlock()
}

// Drop gives up on a released leaf (its attempt budget is spent): it no
// longer counts as outstanding.
func (t *Tree[H]) Drop(c partition.Cube) {
	t.mu.Lock()
	t.outstanding--
	t.signalLocked()
	t.mu.Unlock()
}

// Drain empties the queue and returns the cubes that were waiting, which
// no longer count as outstanding — the run is ending without them.
func (t *Tree[H]) Drain() []partition.Cube {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.queue
	t.queue = nil
	t.outstanding -= len(out)
	t.signalLocked()
	return out
}

// Outstanding reports how many live leaves are neither decided nor
// dropped.
func (t *Tree[H]) Outstanding() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.outstanding
}

// Next is one scheduling decision for an idle executor. At most one of
// Run and Victim is set. With neither, the executor waits (see Wait)
// for Wake to close or the clock to reach At, then asks again — unless
// Done says nothing is outstanding.
type Next[H any] struct {
	// Run is a queued cube (or hedge duplicate) to execute now.
	Run *Assignment[H]
	// Victim is a running assignment reserved for splitting: the
	// executor commits the SPLIT record, then calls CompleteSplit (or
	// AbortSplit if the commit failed).
	Victim *Assignment[H]
	// Done reports that no leaf is outstanding.
	Done bool
	// Wake closes on the next tree event.
	Wake <-chan struct{}
	// At, when non-zero, is the earliest time a running cube can next
	// qualify as a split victim or hedge candidate for this worker by
	// age alone. It is zero while none could, so an idle executor arms
	// no timer when splitting and hedging are off.
	At time.Time
}

// Acquire makes one non-blocking scheduling decision for the idle
// executor worker: a queued cube if any, else a split victim, else a
// hedge duplicate. h is the handle recorded on a returned Run.
func (t *Tree[H]) Acquire(worker string, h H, now time.Time) Next[H] {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.queue) > 0 {
		c := t.queue[0]
		t.queue = t.queue[1:]
		return Next[H]{Run: t.registerLocked(c, worker, h, now, false)}
	}
	victim, hedge, at := t.scanLocked(now, worker)
	if victim != nil {
		// From here the victim's result (and any twin's) can no longer
		// win: the split is reserved before its record lands.
		t.splitting[victim.Cube] = true
		return Next[H]{Victim: victim}
	}
	if hedge != nil {
		t.stats.Hedges++
		return Next[H]{Run: t.registerLocked(hedge.Cube, worker, h, now, true)}
	}
	return Next[H]{Done: t.outstanding == 0, Wake: t.changed, At: at}
}

func (t *Tree[H]) registerLocked(c partition.Cube, worker string, h H, now time.Time, hedge bool) *Assignment[H] {
	t.nextID++
	a := &Assignment[H]{ID: t.nextID, Cube: c, Worker: worker, Handle: h, Started: now, Hedge: hedge}
	t.inflight[a.ID] = a
	t.stats.MaxDepth = max(t.stats.MaxDepth, c.Depth())
	return a
}

// canSplitLocked: a multi-partition range always halves; a single
// partition needs an unfixed split bit under both the depth cap and the
// encoding's supply.
func (t *Tree[H]) canSplitLocked(c partition.Cube) bool {
	if t.cfg.SplitDepth <= 0 {
		return false
	}
	if c.Size() > 1 {
		return true
	}
	return c.Depth() < t.cfg.SplitDepth && c.Depth() < t.cfg.SplitBits
}

// candidateLocked reports whether a is a live, running assignment.
func (t *Tree[H]) candidateLocked(a *Assignment[H]) bool {
	c := a.Cube
	return a.state == running && !t.decided[c] && !t.split[c] && !t.splitting[c]
}

// scanLocked makes one pass over the running assignments. It returns
// the split victim — the hardest cube past the grace that can still be
// refined and meets the hardness floor — and the hedge candidate for
// worker — the longest-running cube past the grace with a single
// running copy on another worker; ties go to the oldest, then the
// lowest ID. at is the earliest future time a cube ages past the grace
// into either role, zero if none can. A cube already past the grace
// that does not qualify changes only on an event (a hardness crossing,
// a twin's retirement), which closes the wake channel instead.
func (t *Tree[H]) scanLocked(now time.Time, worker string) (victim, hedge *Assignment[H], at time.Time) {
	if t.cfg.SplitDepth <= 0 && !t.cfg.Hedge {
		return nil, nil, time.Time{}
	}
	var copies map[partition.Cube]int
	if t.cfg.Hedge {
		copies = make(map[partition.Cube]int)
		for _, a := range t.inflight {
			if a.state == running {
				copies[a.Cube]++
			}
		}
	}
	var victimHardness float64
	for _, a := range t.inflight {
		if !t.candidateLocked(a) {
			continue
		}
		splittable := t.canSplitLocked(a.Cube)
		hedgeable := t.cfg.Hedge && copies[a.Cube] == 1 && a.Worker != worker
		if !splittable && !hedgeable {
			continue
		}
		if due := a.Started.Add(t.cfg.SplitGrace); due.After(now) {
			if at.IsZero() || due.Before(at) {
				at = due
			}
			continue
		}
		h := t.hardness[a.Cube]
		if splittable && h >= t.cfg.SplitHardness &&
			(victim == nil || h > victimHardness || (h == victimHardness && older(a, victim))) {
			victim, victimHardness = a, h
		}
		if hedgeable && (hedge == nil || older(a, hedge)) {
			hedge = a
		}
	}
	return victim, hedge, at
}

func older[H any](a, b *Assignment[H]) bool {
	if !a.Started.Equal(b.Started) {
		return a.Started.Before(b.Started)
	}
	return a.ID < b.ID
}

// CompleteSplit finalises a split whose SPLIT record is durably
// committed: the victim's cube is superseded, every assignment still
// running on it is cancelled, the two children enter the tree, and the
// first is handed straight to the idle caller (the steal) while the
// second joins the queue.
func (t *Tree[H]) CompleteSplit(victim *Assignment[H], worker string, h H, now time.Time) *Assignment[H] {
	left, right := victim.Cube.Split()
	t.mu.Lock()
	delete(t.splitting, victim.Cube)
	delete(t.hardness, victim.Cube)
	t.split[victim.Cube] = true
	t.stats.Splits++
	if victim.Worker != worker {
		t.stats.Steals++
	}
	t.outstanding++ // one leaf became two
	t.queue = append(t.queue, right)
	a := t.registerLocked(left, worker, h, now, false)
	t.supersedeAndUnlock(victim.Cube)
	return a
}

// AbortSplit rolls back a reservation whose SPLIT record could not be
// committed (the run is ending): the victim stays superseded — its
// claim window already closed — but no children are created, and the
// leaf stops counting as outstanding.
func (t *Tree[H]) AbortSplit(victim *Assignment[H]) {
	t.mu.Lock()
	delete(t.splitting, victim.Cube)
	t.split[victim.Cube] = true
	t.outstanding--
	t.signalLocked()
	t.mu.Unlock()
}

// supersedeAndUnlock marks every assignment still running on c
// superseded, signals the event, releases the lock, and cancels them.
func (t *Tree[H]) supersedeAndUnlock(c partition.Cube) {
	var cancels []*Assignment[H]
	for _, a := range t.inflight {
		if a.Cube == c && a.state == running {
			a.state = superseded
			cancels = append(cancels, a)
		}
	}
	t.signalLocked()
	t.mu.Unlock()
	for _, a := range cancels {
		t.cancel(a)
	}
}

// Note records a running assignment's live hardness, the split
// steering signal. Crossing the SplitHardness floor is an event: it may
// turn the cube into a victim for an executor already waiting.
func (t *Tree[H]) Note(a *Assignment[H], hardness float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if a.state != running {
		return
	}
	old := t.hardness[a.Cube]
	t.hardness[a.Cube] = hardness
	if t.cfg.SplitHardness > 0 && old < t.cfg.SplitHardness && hardness >= t.cfg.SplitHardness {
		t.signalLocked()
	}
}

// Hardness reads a cube's latest live hardness.
func (t *Tree[H]) Hardness(c partition.Cube) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.hardness[c]
}

// Claim decides the race for a terminal result: it wins iff the
// assignment still runs and its cube was not superseded. A win decides
// the leaf and cancels every twin still running; a loss means the
// result must be discarded (not journaled, not charged).
func (t *Tree[H]) Claim(a *Assignment[H]) bool {
	t.mu.Lock()
	delete(t.inflight, a.ID)
	delete(t.hardness, a.Cube)
	if !t.candidateLocked(a) {
		a.state = superseded
		t.stats.Superseded++
		t.signalLocked()
		t.mu.Unlock()
		return false
	}
	a.state = claimed
	t.decided[a.Cube] = true
	t.outstanding--
	t.supersedeAndUnlock(a.Cube)
	return true
}

// Release retires an assignment that produced no terminal result
// (transport failure, retryable Unknown, rejected certificate). It
// reports whether the leaf needs the caller's attention — Requeue or
// Drop — and false when the cube was superseded (its children or a
// twin carry it) or a hedge twin is still running on it.
func (t *Tree[H]) Release(a *Assignment[H]) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.inflight, a.ID)
	t.signalLocked()
	if !t.candidateLocked(a) {
		a.state = superseded
		t.stats.Superseded++
		return false
	}
	a.state = superseded // retired; a twin may still win
	for _, o := range t.inflight {
		if o.Cube == a.Cube && o.state == running {
			return false
		}
	}
	delete(t.hardness, a.Cube)
	return true
}

// Stats snapshots the counters.
func (t *Tree[H]) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// Wait blocks an idle executor until the tree changes (n.Wake), the
// clock reaches n.At, or stop closes. It is the only place the engine
// touches the real clock.
func Wait[H any](n Next[H], stop <-chan struct{}) {
	var timer <-chan time.Time
	if !n.At.IsZero() {
		tm := time.NewTimer(time.Until(n.At))
		defer tm.Stop()
		timer = tm.C
	}
	select {
	case <-n.Wake:
	case <-timer:
	case <-stop:
	}
}
