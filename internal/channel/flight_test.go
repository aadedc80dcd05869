package channel

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"ewmac/internal/acoustic"
	"ewmac/internal/energy"
	"ewmac/internal/packet"
	"ewmac/internal/phy"
	"ewmac/internal/sim"
	"ewmac/internal/topology"
	"ewmac/internal/vec"
)

// seenArrival is one arrival as its receiver saw it start.
type seenArrival struct {
	at       sim.Time
	levelDB  float64
	syncable bool
}

// playMovingSource runs a two-ray scenario in which source 1 moves and
// transmits again while its earlier transmissions are still in flight,
// and returns every receiver's arrivals in the order they started.
func playMovingSource(t *testing.T, cache bool) (map[packet.NodeID][]seenArrival, *Channel) {
	t.Helper()
	eng := sim.NewEngine(1)
	model := acoustic.DefaultModel()
	model.SurfaceReflection = true
	// Receivers inside decode range, between decode and interference
	// range, and one out of both; all deep enough for a surface echo.
	xs := []float64{0, 400, 900, 1400, 2200, 2900, 3500}
	nodes := make([]*topology.Node, len(xs))
	for i, x := range xs {
		nodes[i] = &topology.Node{ID: packet.NodeID(i + 1), Pos: vec.V3{X: x, Y: 50 * float64(i), Z: 300}}
	}
	region := vec.Box{Min: vec.V3{X: -1e5, Y: -1e5, Z: 0}, Max: vec.V3{X: 1e5, Y: 1e5, Z: 1e4}}
	net, err := topology.NewNetwork(region, model, nodes)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := New(eng, net)
	if err != nil {
		t.Fatal(err)
	}
	ch.SetCacheEnabled(cache)
	for i := range xs {
		m, err := phy.NewModem(phy.Config{
			ID: packet.NodeID(i + 1), Engine: eng, Model: model,
			Medium: ch, Energy: energy.DefaultProfile(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := ch.Register(m); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[packet.NodeID][]seenArrival{}
	ch.onStart = func(h *hop) {
		if h.at != eng.Now() {
			t.Errorf("arrival keyed %v started at %v", h.at, eng.Now())
		}
		seen[h.rx.ID()] = append(seen[h.rx.ID()], seenArrival{eng.Now(), h.levelDB, h.syncable})
	}
	send := func(src packet.NodeID) {
		f := &packet.Frame{Kind: packet.KindData, Src: src, Dst: 2, DataBits: 2048}
		if err := ch.Broadcast(src, f, 300*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	moveSource := func(dx float64) {
		net.Node(1).Pos.X += dx
		net.Invalidate()
	}
	// The first arrival is 270 ms out, so every broadcast below leaves
	// while all earlier ones are still in flight: each move rebuilds
	// source 1's cached row in place under a live flight.
	send(1)
	at := func(ms int, fn func()) {
		eng.MustScheduleAt(sim.At(time.Duration(ms)*time.Millisecond), sim.PriorityMAC, fn)
	}
	at(20, func() { moveSource(250); send(1) })
	at(30, func() { send(3) })
	at(40, func() { moveSource(-600); send(1) })
	at(60, func() { send(1) }) // unmoved: a cache hit
	eng.Run()
	return seen, ch
}

// A source that moves and transmits again while its previous flight is
// in the air must not disturb that flight: with the geometry cache on,
// every receiver sees exactly the arrivals it sees with the cache off.
func TestRebuildUnderLiveFlightMatchesUncached(t *testing.T) {
	got, ch := playMovingSource(t, true)
	want, _ := playMovingSource(t, false)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cached arrivals differ from uncached:\n got %v\nwant %v", got, want)
	}
	if hits, misses := ch.CacheStats(); hits == 0 || misses < 4 {
		t.Errorf("cache hits/misses = %d/%d, want a hit and a rebuild per move", hits, misses)
	}
	var arrivals, unsyncable int
	for _, seq := range got {
		for _, a := range seq {
			if !a.syncable {
				unsyncable++
			}
		}
		arrivals += len(seq)
	}
	if unsyncable == 0 || arrivals < 5*6 {
		t.Errorf("scenario too thin: %d arrivals, %d unsyncable", arrivals, unsyncable)
	}
}

// The packed-key sort and its comparator fallback must both give the
// (delay, index) order, ties in delay included.
func TestSortOrderIsDelayThenIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, huge := range []bool{false, true} {
		var g srcGeoms
		for i := 0; i < 300; i++ {
			d := time.Duration(rng.Intn(50)) * time.Millisecond
			if huge && i == 7 {
				d = 1 << 60 // cannot be packed above a 9-bit index
			}
			g.paths = append(g.paths, path{delay: d})
		}
		g.sortOrder()
		want := make([]uint64, len(g.paths))
		for i := range want {
			want[i] = uint64(i)
		}
		sort.SliceStable(want, func(a, b int) bool { return g.paths[want[a]].delay < g.paths[want[b]].delay })
		for i, k := range g.order {
			if g.index(k) != want[i] {
				t.Fatalf("huge=%v: order[%d] is path %d, want %d", huge, i, g.index(k), want[i])
			}
		}
	}
}
