// Package sim provides the discrete-event simulation engine that the
// WiGig/WiHD protocol models run on: an event scheduler with cancelable
// timers, radios bound to positions and beam patterns, and a shared
// medium that converts every transmission into per-receiver power, SINR,
// and decode outcomes using the rf propagation engine.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"time"

	"repro/internal/audit"
)

// Time is simulation time, measured as a duration since the start of the
// run. Nanosecond resolution comfortably covers both the sub-microsecond
// PHY preambles and the 80-minute stability experiment of Fig. 14.
type Time = time.Duration

// timerEvent is the pooled, heap-resident record of one scheduled
// callback. Events are owned by their scheduler: firing or canceling
// recycles the record onto a free list, and gen is bumped on every
// recycle so stale Timer handles can never touch the event's next
// incarnation.
type timerEvent struct {
	at    Time
	seq   uint64
	gen   uint64
	fn    func()
	index int // heap position, -1 once popped
	sched *Scheduler
}

// Timer is a cancelable handle to a scheduled callback. It is a small
// value — copy it freely. The zero Timer is inert: Cancel is a no-op and
// Active reports false. Once the event fires or is canceled, the handle
// goes dead (the underlying record is recycled for a later Schedule, and
// the generation stamp keeps the dead handle from touching it).
type Timer struct {
	ev  *timerEvent
	gen uint64
}

// Cancel prevents the timer from firing and releases its slot in the
// event queue immediately — a canceled timer does not linger until its
// fire time. Canceling an already-fired or already-canceled timer (or
// the zero Timer) is a no-op: the generation stamp detects that the
// pooled event record has moved on, even if it has since been reused for
// an unrelated event.
func (t Timer) Cancel() {
	ev := t.ev
	if ev == nil || ev.gen != t.gen {
		return
	}
	s := ev.sched
	if ev.index >= 0 {
		heap.Remove(&s.events, ev.index)
	}
	s.recycle(ev)
}

// Active reports whether the event is still queued: not yet fired and
// not canceled. The zero Timer is inactive.
func (t Timer) Active() bool { return t.ev != nil && t.ev.gen == t.gen }

// At returns the scheduled fire time while the timer is active, and 0
// once the handle is dead (fired, canceled, or zero).
func (t Timer) At() Time {
	if !t.Active() {
		return 0
	}
	return t.ev.at
}

type timerHeap []*timerEvent

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq // FIFO among same-time events
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *timerHeap) Push(x any) {
	t := x.(*timerEvent)
	t.index = len(*h)
	*h = append(*h, t)
}
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	t.index = -1
	*h = old[:n-1]
	return t
}

// DeadlineError is the panic value a scheduler raises when its
// wall-clock budget expires mid-run. The experiment guard
// (internal/experiments) recovers it and reports the run as a
// structured deadline failure instead of a hang or a crash.
type DeadlineError struct {
	// Budget is the wall-clock allowance that was exceeded.
	Budget time.Duration
	// Elapsed is the wall time actually consumed when the watchdog
	// tripped.
	Elapsed time.Duration
	// SimTime is the simulation clock at the abort point.
	SimTime Time
}

// Error implements error.
func (e *DeadlineError) Error() string {
	return fmt.Sprintf("sim: run exceeded its %v wall-clock deadline (elapsed %v, sim time %v)",
		e.Budget, e.Elapsed.Round(time.Millisecond), e.SimTime)
}

// ErrDeadline is the errors.Is target every *DeadlineError wraps, so
// callers can classify deadline failures without holding the concrete
// type — including through the campaign runner's FAIL synthesis, which
// wraps the recovered panic in par.PointError chains.
var ErrDeadline = errors.New("sim: wall-clock deadline exceeded")

// Unwrap makes errors.Is(err, ErrDeadline) hold through wrapping.
func (e *DeadlineError) Unwrap() error { return ErrDeadline }

// DefaultWatchdogEvery spaces the wall-clock checks: one time.Now() per
// this many events keeps the watchdog far off the hot path (an event
// dispatch costs well under a microsecond; 4096 events bound the
// detection latency to a few milliseconds of simulation work). The
// heap-consistency audit runs on the same cadence.
const DefaultWatchdogEvery = 4096

// Scheduler is a single-threaded discrete-event executor. All simulation
// code runs on the scheduler goroutine; the models need no locking.
type Scheduler struct {
	now     Time
	seq     uint64
	events  timerHeap
	free    []*timerEvent // recycled event records (fired or canceled)
	stopped bool

	wallStart  time.Time
	wallBudget time.Duration // 0 = unwatched
	eventsRun  uint64
}

// NewScheduler returns an unwatched scheduler at time zero.
func NewScheduler() *Scheduler { return &Scheduler{} }

// SetWallBudget arms the wall-clock watchdog: once more than d of wall
// time has passed since start, Run panics with *DeadlineError. The
// caller owns the clock, so every scheduler of one experiment can share
// one start and one budget. Zero d disables the watchdog.
func (s *Scheduler) SetWallBudget(start time.Time, d time.Duration) {
	s.wallStart, s.wallBudget = start, d
}

// Now returns the current simulation time.
func (s *Scheduler) Now() Time { return s.now }

// At schedules fn at absolute simulation time t. Scheduling in the past
// fires at the current time (events never travel backwards). The event
// record comes from the scheduler's free list, so steady-state
// scheduling does not allocate.
func (s *Scheduler) At(t Time, fn func()) Timer {
	if t < s.now {
		t = s.now
	}
	s.seq++
	var ev *timerEvent
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		ev = &timerEvent{sched: s}
	}
	ev.at, ev.seq, ev.fn = t, s.seq, fn
	heap.Push(&s.events, ev)
	return Timer{ev: ev, gen: ev.gen}
}

// After schedules fn after delay d.
func (s *Scheduler) After(d Time, fn func()) Timer {
	return s.At(s.now+d, fn)
}

// recycle returns a popped or canceled event record to the free list.
// Bumping the generation kills every outstanding Timer handle to it.
func (s *Scheduler) recycle(ev *timerEvent) {
	ev.gen++
	ev.fn = nil // release the captured callback
	s.free = append(s.free, ev)
}

// Stop makes Run return after the current event.
func (s *Scheduler) Stop() { s.stopped = true }

// Pending returns the number of live queued events. Canceled timers are
// removed from the queue at Cancel time and never counted.
func (s *Scheduler) Pending() int { return s.events.Len() }

// Run executes events in time order until the queue is empty, the
// horizon is passed, Stop is called, or the wall-clock budget expires
// (which panics with *DeadlineError — recovered by the experiment
// guard). The budget is checked on entry and every DefaultWatchdogEvery
// events. It returns the simulation time at exit; the clock is advanced
// to the horizon even if the queue drained earlier, so back-to-back Run
// calls see a contiguous timeline.
func (s *Scheduler) Run(until Time) Time {
	s.stopped = false
	s.checkWall(s.now)
	for s.events.Len() > 0 && !s.stopped {
		next := s.events[0]
		if next.at > until {
			break
		}
		heap.Pop(&s.events)
		// Recycle before dispatch: the callback may schedule new events,
		// and reusing this record immediately keeps the free list short.
		// Canceled events never reach this loop — Cancel removes them from
		// the heap on the spot.
		at, fn := next.at, next.fn
		s.recycle(next)
		s.eventsRun++
		if s.eventsRun%DefaultWatchdogEvery == 0 {
			s.checkWall(at)
			if audit.On() {
				s.auditHeap(at)
			}
		}
		if audit.On() && at < s.now {
			audit.Reportf(audit.RuleSchedTimeMonotone, s.now,
				"event scheduled for %v popped at clock %v", at, s.now)
		}
		s.now = at
		fn()
	}
	if s.now < until && !s.stopped {
		s.now = until
	}
	return s.now
}

// checkWall panics with *DeadlineError once the wall budget is spent.
func (s *Scheduler) checkWall(at Time) {
	if s.wallBudget <= 0 {
		return
	}
	if el := time.Since(s.wallStart); el > s.wallBudget {
		panic(&DeadlineError{Budget: s.wallBudget, Elapsed: el, SimTime: at})
	}
}

// auditHeap verifies the event-queue invariants Pending depends on: the
// heap order property holds, every queued timer's index matches its
// slot, and no recycled event record lingers in the queue (Cancel and
// fire both remove the heap slot before recycling, so Pending counts
// exactly the live events). Runs on the watchdog cadence when auditing
// is enabled.
func (s *Scheduler) auditHeap(now Time) {
	for i, tm := range s.events {
		if tm.index != i {
			audit.Reportf(audit.RuleSchedHeapConsistent, now,
				"timer at slot %d records index %d", i, tm.index)
			return
		}
		if tm.fn == nil {
			audit.Reportf(audit.RuleSchedHeapConsistent, now,
				"recycled event record (at %v) still queued at slot %d; Pending=%d overcounts", tm.at, i, s.events.Len())
			return
		}
		if parent := (i - 1) / 2; i > 0 && s.events.Less(i, parent) {
			audit.Reportf(audit.RuleSchedHeapConsistent, now,
				"heap order broken: slot %d (at %v, seq %d) sorts before parent slot %d (at %v, seq %d)",
				i, tm.at, tm.seq, parent, s.events[parent].at, s.events[parent].seq)
			return
		}
	}
}
