package sim

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

// testWave is a Wave over a fixed, sorted item list.
type testWave struct {
	items []waveItem
	next  int // index of the head item
	fire  func(label int)
}

type waveItem struct {
	at    Time
	prio  Priority
	seq   uint64
	label int
}

func (w *testWave) Advance() (Time, Priority, uint64, bool) {
	w.next++
	if w.next == len(w.items) {
		return 0, 0, 0, false
	}
	it := w.items[w.next]
	return it.at, it.prio, it.seq, true
}

func (w *testWave) Fire() { w.fire(w.items[w.next-1].label) }

// fired is one executed event as the order harness logs it.
type fired struct {
	label    int
	at       Time
	pending  int
	executed uint64
}

// orderHarness drives one engine through a scenario fixed by its seed.
// With waves set, batches of events go out as waves; without, each
// batch item is scheduled on its own — the per-event reference. Every
// event's reaction is a function of its label alone, so both engines
// see the same scenario as long as they pop in the same order.
type orderHarness struct {
	e       *Engine
	waves   bool
	seed    int64
	labels  int
	log     []fired
	plain   []int // labels of pending plain events, in scheduling order
	handles map[int]Handle
	queued  []*testWave
	stopOK  bool

	// Coverage of the paths the test exists for (wave engine only).
	compactions, prio0BelowWave int
}

// maxLabels bounds a scenario: past it events stop spawning more.
const maxLabels = 800

func newOrderHarness(seed int64, waves bool) *orderHarness {
	return &orderHarness{e: NewEngine(1), waves: waves, seed: seed, handles: map[int]Handle{}}
}

// fire logs and runs event label; w is the wave it came from, if any.
func (h *orderHarness) fire(label int, w *testWave) {
	h.log = append(h.log, fired{label, h.e.Now(), h.e.Pending(), h.e.Executed()})
	if i := slices.Index(h.plain, label); i >= 0 {
		h.plain = slices.Delete(h.plain, i, i+1)
		delete(h.handles, label)
	}
	h.react(rand.New(rand.NewSource(h.seed<<20^int64(label))), w)
}

// react is an event's reaction: schedule, cancel or stop.
func (h *orderHarness) react(r *rand.Rand, w *testWave) {
	n := 1 + r.Intn(2)
	for i := 0; i < n && h.labels < maxLabels; i++ {
		switch op := r.Intn(10); {
		case op < 3:
			h.schedulePlain(h.e.Now().Add(ms(r.Intn(4))), Priority(r.Intn(4)))
		case op == 3:
			// Priority 0 at Now sorts below every wave key at Now, the
			// key of the wave this item came from included.
			if w != nil && w.next < len(w.items) {
				h.prio0BelowWave++
			}
			h.schedulePlain(h.e.Now(), 0)
		case op < 6:
			h.scheduleWave(r)
		case op < 8:
			h.cancelOne(r)
		case op == 8:
			if h.stopOK && r.Intn(3) == 0 {
				h.e.Stop()
			}
		}
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func (h *orderHarness) schedulePlain(at Time, prio Priority) {
	label := h.labels
	h.labels++
	h.handles[label] = h.e.MustScheduleAt(at, prio, func() { h.fire(label, nil) })
	h.plain = append(h.plain, label)
}

// scheduleWave schedules a batch of 1-6 events, in seq order, at
// random near-future instants and non-zero priorities.
func (h *orderHarness) scheduleWave(r *rand.Rand) {
	items := make([]waveItem, 1+r.Intn(6))
	for i := range items {
		items[i] = waveItem{at: h.e.Now().Add(ms(r.Intn(5))), prio: Priority(1 + r.Intn(3))}
	}
	if !h.waves {
		for _, it := range items {
			label := h.labels
			h.labels++
			h.e.MustScheduleAt(it.at, it.prio, func() { h.fire(label, nil) })
		}
		return
	}
	first := h.e.Reserve(len(items))
	for i := range items {
		items[i].seq = first + uint64(i)
		items[i].label = h.labels
		h.labels++
	}
	slices.SortFunc(items, func(a, b waveItem) int {
		if a.at != b.at {
			return int(a.at - b.at)
		}
		if a.prio != b.prio {
			return int(a.prio - b.prio)
		}
		return int(a.seq) - int(b.seq)
	})
	w := &testWave{items: items}
	w.fire = func(label int) { h.fire(label, w) }
	h.queued = append(h.queued, w)
	h.e.ScheduleWave(w, items[0].at, items[0].prio, items[0].seq)
}

func (h *orderHarness) cancelOne(r *rand.Rand) {
	if len(h.plain) == 0 {
		return
	}
	i := r.Intn(len(h.plain))
	label := h.plain[i]
	h.plain = slices.Delete(h.plain, i, i+1)
	raw := h.e.PendingRaw()
	h.handles[label].Cancel()
	delete(h.handles, label)
	if h.e.PendingRaw() < raw {
		h.compactions++
	}
}

// midWave reports whether some wave has fired part of its items.
func (h *orderHarness) midWave() bool {
	for _, w := range h.queued {
		if w.next > 0 && w.next < len(w.items) {
			return true
		}
	}
	return false
}

// snapshot is the engine state the two runs must agree on after every
// step of play.
type snapshot struct {
	now      Time
	executed uint64
	pending  int
	fired    int
	aborted  bool
}

// play runs the harness's scenario and returns the per-step snapshots.
// midStops counts steps that ended with a wave half fired.
func (h *orderHarness) play() (snaps []snapshot, midStops int) {
	r := rand.New(rand.NewSource(h.seed))
	// A burst of plain events, two in three cancelled, pushes the heap
	// past the compaction threshold; waves sit among them.
	for i := 0; i < 2*compactMin+r.Intn(4*compactMin); i++ {
		h.schedulePlain(Epoch.Add(ms(r.Intn(8))), Priority(r.Intn(4)))
		if i%3 != 0 {
			h.cancelOne(r)
		}
		if i%8 == 0 {
			h.scheduleWave(r)
		}
	}
	for h.e.Pending() > 0 {
		aborted := false
		switch r.Intn(3) {
		case 0:
			h.e.RunUntil(h.e.Now().Add(ms(r.Intn(3))))
		case 1:
			h.stopOK = true
			h.e.Run()
			h.stopOK = false
		case 2:
			h.e.SetBudget(Budget{MaxEvents: h.e.Executed() + uint64(1+r.Intn(20))})
			h.e.Run()
			aborted = h.e.BudgetErr() != nil
			h.e.SetBudget(Budget{})
		}
		if h.midWave() {
			midStops++
		}
		snaps = append(snaps, snapshot{h.e.Now(), h.e.Executed(), h.e.Pending(), len(h.log), aborted})
	}
	return snaps, midStops
}

// Waves mixed with plain events must pop exactly as the same events
// scheduled one by one: same order, same instants, and the same
// Executed and Pending at every event and after every RunUntil, Stop
// and budget abort, with compaction firing underneath.
func TestEngineWaveOrderMatchesPerEventProperty(t *testing.T) {
	var compactions, prio0, midStops int
	f := func(seed int64) bool {
		ref := newOrderHarness(seed, false)
		refSnaps, _ := ref.play()
		wv := newOrderHarness(seed, true)
		wvSnaps, mid := wv.play()
		compactions += wv.compactions
		prio0 += wv.prio0BelowWave
		midStops += mid
		if !slices.Equal(wv.log, ref.log) {
			t.Logf("seed %d: pop order differs (%d vs %d events)", seed, len(wv.log), len(ref.log))
			return false
		}
		if !slices.Equal(wvSnaps, refSnaps) {
			t.Logf("seed %d: engine state differs between steps", seed)
			return false
		}
		return wv.e.PendingRaw() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	if compactions == 0 || prio0 == 0 || midStops == 0 {
		t.Errorf("scenarios missed a path: compactions %d, prio-0 under a wave %d, stops mid-wave %d",
			compactions, prio0, midStops)
	}
}

// A wave's items count as pending events; its heap entry counts once.
func TestWavePendingCountsItems(t *testing.T) {
	e := NewEngine(1)
	first := e.Reserve(3)
	w := &testWave{fire: func(int) {}}
	for i := 0; i < 3; i++ {
		w.items = append(w.items, waveItem{at: At(ms(i)), prio: PriorityPHY, seq: first + uint64(i)})
	}
	e.ScheduleWave(w, w.items[0].at, w.items[0].prio, w.items[0].seq)
	e.ScheduleIn(ms(1), PriorityMAC, func() {})
	if e.Pending() != 4 || e.PendingRaw() != 2 {
		t.Fatalf("Pending/PendingRaw = %d/%d, want 4/2", e.Pending(), e.PendingRaw())
	}
	if n := e.RunUntil(At(ms(1))); n != 3 {
		t.Fatalf("ran %d events to 1ms, want 3", n)
	}
	if e.Pending() != 1 || e.PendingRaw() != 1 || e.Executed() != 3 {
		t.Fatalf("after 1ms: Pending/PendingRaw/Executed = %d/%d/%d, want 1/1/3",
			e.Pending(), e.PendingRaw(), e.Executed())
	}
	e.Run()
	if e.Pending() != 0 || e.PendingRaw() != 0 || e.Executed() != 4 {
		t.Fatalf("drained: Pending/PendingRaw/Executed = %d/%d/%d", e.Pending(), e.PendingRaw(), e.Executed())
	}
}

// A wave whose next item sorts before the one it just fired is a bug
// in the wave; the engine refuses it rather than run out of order.
func TestWaveOutOfOrderPanics(t *testing.T) {
	e := NewEngine(1)
	first := e.Reserve(2)
	w := &testWave{fire: func(int) {}, items: []waveItem{
		{at: At(ms(2)), prio: PriorityPHY, seq: first},
		{at: At(ms(1)), prio: PriorityPHY, seq: first + 1},
	}}
	e.ScheduleWave(w, w.items[0].at, w.items[0].prio, w.items[0].seq)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order wave did not panic")
		}
	}()
	e.Run()
}
