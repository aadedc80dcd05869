package sim

import (
	"errors"
	"fmt"
	"time"
)

// Priority orders events that are scheduled for the same instant.
// Lower values run first. The bands below keep physical-layer
// bookkeeping strictly ahead of protocol reactions within an instant.
type Priority int32

const (
	// PriorityPHY is for physical-layer events (arrival starts/ends).
	PriorityPHY Priority = 1
	// PriorityMAC is for protocol state-machine events (slot ticks, timers).
	PriorityMAC Priority = 2
	// PriorityApp is for application-level events (traffic generation).
	PriorityApp Priority = 3
	// PriorityObserver is for metric sampling; it always sees settled state.
	PriorityObserver Priority = 4
)

// ErrScheduleInPast is returned when an event is scheduled before the
// engine's current time.
var ErrScheduleInPast = errors.New("sim: event scheduled in the past")

// ErrPriorityRange is returned when an event's priority lies outside
// [0, MaxPriority]: the heap packs the priority into a key's top byte.
var ErrPriorityRange = errors.New("sim: event priority out of range")

// MaxPriority is the largest priority ScheduleAt accepts.
const MaxPriority Priority = 255

// Handle identifies a scheduled event and allows cancelling it. It is a
// small value (copy freely); the zero Handle refers to no event, and
// Cancel/Pending on it are safe no-ops. Events are pooled and recycled
// after execution, so a Handle carries the generation it was issued
// under — operations on a Handle whose event has since been recycled
// are no-ops, never misfires against the event's new occupant.
type Handle struct {
	ev  *event
	gen uint64
}

// Cancel prevents the event from running. Cancelling an already-executed
// or already-cancelled event is a no-op. Cancel reports whether the event
// was still pending. The event's slot stays in the queue until it is
// popped or reclaimed by lazy compaction.
func (h Handle) Cancel() bool {
	ev := h.ev
	if ev == nil || ev.gen != h.gen || ev.cancelled {
		return false
	}
	ev.cancelled = true
	ev.fn = nil
	e := ev.eng
	e.live--
	e.cancelled++
	e.maybeCompact()
	return true
}

// Pending reports whether the event is still waiting to run.
func (h Handle) Pending() bool {
	return h.ev != nil && h.ev.gen == h.gen && !h.ev.cancelled
}

// event is a pooled scheduled callback, or the heap slot of a Wave
// (then fn is nil). gen is bumped every time the event is recycled,
// invalidating outstanding Handles.
type event struct {
	gen       uint64
	fn        func()
	wave      Wave
	eng       *Engine
	cancelled bool
}

// Wave is a run of events that shares one heap entry. Its items must
// come in strictly increasing (at, prio, seq) order, with every seq
// drawn by Reserve; the engine then pops each item exactly where the
// same event scheduled on its own would have run. A wave may grow at
// its tail while queued, as long as its head does not change.
type Wave interface {
	// Advance drops the head item, which the next Fire runs, and
	// reports the new head's key; ok is false when none is left, and
	// the engine then forgets the wave.
	Advance() (at Time, prio Priority, seq uint64, ok bool)
	// Fire runs the item the last Advance dropped. It may schedule
	// events and waves, this one included once Advance has dropped it.
	Fire()
}

// entry is one heap slot. It holds the ordering fields by value, so sift
// comparisons read the contiguous heap array instead of following event
// pointers. key packs the priority into the top byte above the 56-bit
// scheduling sequence (2^56 events is centuries of simulation at any
// realistic rate).
type entry struct {
	at  Time
	key uint64
	ev  *event
}

// seqBits is the width of the sequence number in entry.key.
const seqBits = 56

// less is the total order events execute in: time, then priority, then
// scheduling sequence. seq is unique, so the order is strict — the
// execution sequence cannot depend on heap layout or compaction.
func (a entry) less(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.key < b.key
}

// compactMin is the queue size below which cancelled entries are left
// for Run to discard; compacting tiny queues costs more than it saves.
const compactMin = 64

// Engine is a deterministic discrete-event scheduler.
type Engine struct {
	now    Time
	events []entry  // binary min-heap ordered by entry.less
	free   []*event // recycled events; schedule pops from here first
	// live counts queued events that are neither cancelled nor executed;
	// each item of a wave counts as one event.
	live int
	// cancelled counts cancelled entries still in the heap.
	cancelled int
	seq       uint64
	executed  uint64
	stopped   bool
	seed      int64
	streams   map[string]*RNG
	// lastStream memoizes the most recent RNG lookup so hot paths that
	// re-request the same named stream skip the map.
	lastStream *RNG
	// horizon is the last instant Run may execute, while bounded is set
	// (only inside RunUntil).
	horizon Time
	bounded bool
	// wallAccum / runStart track wall-clock time spent inside Run for
	// LoopStats. They are touched only at Run entry/exit, never in the
	// per-event loop, so instrumentation costs the hot path nothing.
	wallAccum time.Duration
	runStart  time.Time
	inRun     bool
	// budget fields (see budget.go): checks run only when budgetOn, so
	// unbudgeted runs pay one predictable branch per event. instAt /
	// instCount / instValid drive the livelock detector.
	budget    Budget
	budgetOn  bool
	budgetErr *BudgetError
	instAt    Time
	instCount uint64
	instValid bool
}

// LoopStats is a snapshot of event-loop health, polled by the
// observability sampler (the engine itself never pushes events).
type LoopStats struct {
	// Now is the current simulation time.
	Now Time
	// Executed counts events run since engine construction.
	Executed uint64
	// Pending is the number of live (not cancelled, not yet executed)
	// events in the queue.
	Pending int
	// PendingRaw is the raw heap length: cancelled entries not yet
	// discarded count, and a wave counts once however many items it
	// holds, so it can be far below Pending.
	PendingRaw int
	// Wall is cumulative wall-clock time spent inside Run.
	Wall time.Duration
}

// LoopStats returns the current event-loop snapshot. It is safe to
// call from inside a running event (the usual case: a sampler event).
func (e *Engine) LoopStats() LoopStats {
	wall := e.wallAccum
	if e.inRun {
		wall += time.Since(e.runStart)
	}
	return LoopStats{
		Now:        e.now,
		Executed:   e.executed,
		Pending:    e.live,
		PendingRaw: len(e.events),
		Wall:       wall,
	}
}

// NewEngine returns an engine whose RNG streams all derive from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{
		seed:    seed,
		streams: make(map[string]*RNG),
	}
}

// Now reports the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Seed reports the seed all RNG streams derive from.
func (e *Engine) Seed() int64 { return e.seed }

// Executed reports how many events have run so far.
func (e *Engine) Executed() uint64 { return e.executed }

// Pending reports how many live events are waiting to run. Cancelled
// entries still occupying queue slots are not counted; PendingRaw
// reports the raw depth.
func (e *Engine) Pending() int { return e.live }

// PendingRaw reports the raw heap length: cancelled entries that have
// not yet been discarded or compacted away count, and a wave counts as
// one entry.
func (e *Engine) PendingRaw() int { return len(e.events) }

// alloc takes an event from the free list, or mints one.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{eng: e}
}

// recycle invalidates outstanding handles and returns the event to the
// free list.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.wave = nil
	ev.cancelled = false
	e.free = append(e.free, ev)
}

// push inserts x into the heap (sift-up).
func (e *Engine) push(x entry) {
	h := append(e.events, x)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !x.less(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = x
	e.events = h
}

// pop removes the earliest entry (sift-down).
func (e *Engine) pop() {
	h := e.events
	n := len(h) - 1
	h[0] = h[n]
	h[n] = entry{}
	e.events = h[:n]
	e.siftDown(0)
}

func (e *Engine) siftDown(i int) {
	h := e.events
	n := len(h)
	if i >= n {
		return
	}
	x := h[i]
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		small := l
		if r := l + 1; r < n && h[r].less(h[l]) {
			small = r
		}
		if !h[small].less(x) {
			break
		}
		h[i] = h[small]
		i = small
	}
	h[i] = x
}

// maybeCompact rebuilds the heap without its cancelled entries once
// they are more than half of it. Compaction is invisible to execution
// order: events are totally ordered by (at, prio, seq), so the pop
// sequence after a rebuild is identical to the sequence without one.
func (e *Engine) maybeCompact() {
	n := len(e.events)
	if n < compactMin || 2*e.cancelled <= n {
		return
	}
	h := e.events
	out := h[:0]
	for _, x := range h {
		if x.ev.cancelled {
			e.recycle(x.ev)
		} else {
			out = append(out, x)
		}
	}
	for i := len(out); i < n; i++ {
		h[i] = entry{}
	}
	e.events = out
	e.cancelled = 0
	for i := len(out)/2 - 1; i >= 0; i-- {
		e.siftDown(i)
	}
}

// ScheduleAt queues fn to run at instant at with the given priority and
// returns a cancellable handle. It returns ErrScheduleInPast if at is
// earlier than Now, and ErrPriorityRange if prio is outside
// [0, MaxPriority]. Steady state (pool warm, queue capacity reached) it
// performs no allocations.
func (e *Engine) ScheduleAt(at Time, prio Priority, fn func()) (Handle, error) {
	if at < e.now {
		return Handle{}, fmt.Errorf("%w: at %v, now %v", ErrScheduleInPast, at, e.now)
	}
	if prio < 0 || prio > MaxPriority {
		return Handle{}, fmt.Errorf("%w: %d", ErrPriorityRange, prio)
	}
	ev := e.alloc()
	ev.fn = fn
	e.push(entry{at: at, key: uint64(prio)<<seqBits | e.seq, ev: ev})
	e.seq++
	e.live++
	return Handle{ev: ev, gen: ev.gen}, nil
}

// Reserve draws a block of n consecutive scheduling sequences and
// counts n events as pending, for the items of waves the caller is
// about to build; it returns the first. Every reserved seq must become
// the key of exactly one wave item, or Pending overcounts.
func (e *Engine) Reserve(n int) uint64 {
	first := e.seq
	e.seq += uint64(n)
	e.live += n
	return first
}

// ScheduleWave queues w keyed by its head item, whose seq must come
// from Reserve. It panics if at is before Now or prio is outside
// [0, MaxPriority].
func (e *Engine) ScheduleWave(w Wave, at Time, prio Priority, seq uint64) {
	if at < e.now {
		panic(fmt.Sprintf("%v: wave at %v, now %v", ErrScheduleInPast, at, e.now))
	}
	if prio < 0 || prio > MaxPriority {
		panic(fmt.Sprintf("%v: %d", ErrPriorityRange, prio))
	}
	ev := e.alloc()
	ev.wave = w
	e.push(entry{at: at, key: uint64(prio)<<seqBits | seq, ev: ev})
}

// ScheduleIn queues fn to run d after Now. Negative d is clamped to zero
// so callers computing residual delays do not have to special-case
// rounding. It panics on a priority outside [0, MaxPriority].
func (e *Engine) ScheduleIn(d time.Duration, prio Priority, fn func()) Handle {
	if d < 0 {
		d = 0
	}
	h, err := e.ScheduleAt(e.now.Add(d), prio, fn)
	if err != nil {
		// Only the priority can be wrong: now+nonnegative >= now.
		panic(err)
	}
	return h
}

// MustScheduleAt is ScheduleAt for callers that have already validated
// the instant and priority; it panics on either error.
func (e *Engine) MustScheduleAt(at Time, prio Priority, fn func()) Handle {
	h, err := e.ScheduleAt(at, prio, fn)
	if err != nil {
		panic(err)
	}
	return h
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in order until the queue is empty, the RunUntil
// horizon is reached, or Stop is called. It returns the number of
// events executed during this call.
func (e *Engine) Run() uint64 {
	if e.budgetErr != nil {
		// A budget abort is terminal for this engine: the stream was cut
		// mid-flight and resuming would silently produce a half-run.
		return 0
	}
	e.stopped = false
	if !e.inRun {
		// Runs can nest only via buggy reentrancy; guard anyway so the
		// wall-clock accounting never double-counts.
		e.inRun = true
		e.runStart = time.Now()
		defer func() {
			e.wallAccum += time.Since(e.runStart)
			e.inRun = false
		}()
	}
	var n uint64
	for len(e.events) > 0 && !e.stopped {
		top := e.events[0]
		ev := top.ev
		if ev.cancelled {
			e.pop()
			e.recycle(ev)
			e.cancelled--
			continue
		}
		if e.bounded && top.at > e.horizon {
			// Past the horizon: leave the event queued and stop so a
			// later Run/RunUntil call can resume from here.
			e.now = e.horizon
			break
		}
		if top.at < e.now {
			panic(fmt.Sprintf("sim: time went backwards: event at %v, now %v", top.at, e.now))
		}
		if e.budgetOn {
			if berr := e.checkBudget(top.at); berr != nil {
				// Abort before touching state: the event stays queued so
				// Pending stays truthful for post-mortems.
				e.budgetErr = berr
				break
			}
		}
		e.now = top.at
		e.live--
		e.executed++
		n++
		if w := ev.wave; w != nil {
			e.advance(top, w)
			w.Fire()
			continue
		}
		e.pop()
		fn := ev.fn
		// Recycle before running: the heap no longer references the
		// event, outstanding Handles are invalidated by the gen bump,
		// and fn may immediately reuse the slot for a new event.
		e.recycle(ev)
		fn()
	}
	return n
}

// advance moves the wave at the heap root on to its next item: the
// entry is re-keyed in place, or dropped once the wave is exhausted.
// It runs before the head item fires, so whatever the item schedules
// is pushed onto a heap that is already consistent.
func (e *Engine) advance(top entry, w Wave) {
	at, prio, seq, ok := w.Advance()
	if !ok {
		e.pop()
		e.recycle(top.ev)
		return
	}
	next := entry{at: at, key: uint64(prio)<<seqBits | seq, ev: top.ev}
	if !top.less(next) {
		panic(fmt.Sprintf("sim: wave out of order: %v/%#x after %v/%#x", at, next.key, top.at, top.key))
	}
	e.events[0] = next
	e.siftDown(0)
}

// RunUntil executes events up to and including instant t, then stops with
// Now advanced to exactly t (even if no event lands there).
func (e *Engine) RunUntil(t Time) uint64 {
	if t < e.now {
		return 0
	}
	prevAt, prevBounded := e.horizon, e.bounded
	e.horizon, e.bounded = t, true
	n := e.Run()
	e.horizon, e.bounded = prevAt, prevBounded
	// A budget abort leaves Now at the abort instant rather than
	// claiming the full window was simulated.
	if e.budgetErr == nil && e.now < t {
		e.now = t
	}
	return n
}
