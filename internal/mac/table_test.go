package mac

import (
	"testing"
	"time"

	"ewmac/internal/packet"
	"ewmac/internal/sim"
)

func TestTableObserveDerivesDelay(t *testing.T) {
	tab := NewNeighborTable()
	// Frame sent at t=10s, tx took 5 ms, arrival completed at 10.505 s:
	// delay = 500 ms.
	f := &packet.Frame{Kind: packet.KindRTS, Src: 4, Dst: 9, Timestamp: 10 * time.Second}
	tab.Observe(f, sim.At(10*time.Second+505*time.Millisecond), 5*time.Millisecond)
	d, ok := tab.Delay(4)
	if !ok || d != 500*time.Millisecond {
		t.Fatalf("Delay = %v, %v; want 500ms", d, ok)
	}
}

func TestTableNegativeDelayClamped(t *testing.T) {
	tab := NewNeighborTable()
	f := &packet.Frame{Kind: packet.KindRTS, Src: 4, Dst: 9, Timestamp: 20 * time.Second}
	tab.Observe(f, sim.At(10*time.Second), time.Millisecond)
	d, ok := tab.Delay(4)
	if !ok || d != 0 {
		t.Fatalf("bogus timestamp should clamp to 0, got %v, %v", d, ok)
	}
}

func TestObservePairDoesNotOverrideMeasurement(t *testing.T) {
	tab := NewNeighborTable()
	f := &packet.Frame{Kind: packet.KindRTS, Src: 4, Dst: 9, Timestamp: 0}
	tab.Observe(f, sim.At(300*time.Millisecond), 0)
	tab.ObservePair(4, 999*time.Millisecond, sim.At(time.Second))
	if d, _ := tab.Delay(4); d != 300*time.Millisecond {
		t.Errorf("piggybacked info overwrote direct measurement: %v", d)
	}
	tab.ObservePair(7, 400*time.Millisecond, sim.At(time.Second))
	if d, ok := tab.Delay(7); !ok || d != 400*time.Millisecond {
		t.Errorf("pair info not stored for unknown node: %v, %v", d, ok)
	}
	tab.ObservePair(packet.Nobody, time.Second, sim.At(time.Second))
	tab.ObservePair(packet.Broadcast, time.Second, sim.At(time.Second))
	if tab.Len() != 2 {
		t.Errorf("Len = %d after reserved-ID inserts, want 2", tab.Len())
	}
}

func TestKnownSortedAndSnapshot(t *testing.T) {
	tab := NewNeighborTable()
	for _, id := range []packet.NodeID{9, 3, 7} {
		f := &packet.Frame{Kind: packet.KindHello, Src: id, Dst: packet.Broadcast, Timestamp: 0}
		tab.Observe(f, sim.At(time.Duration(id)*time.Millisecond), 0)
	}
	ids := tab.Known()
	if len(ids) != 3 || ids[0] != 3 || ids[1] != 7 || ids[2] != 9 {
		t.Fatalf("Known = %v", ids)
	}
	snap := tab.Snapshot(2)
	if len(snap) != 2 || snap[0].ID != 3 || snap[1].ID != 7 {
		t.Fatalf("Snapshot = %v", snap)
	}
	if full := tab.Snapshot(-1); len(full) != 3 {
		t.Fatalf("unbounded Snapshot = %v", full)
	}
}

// The table is a slice indexed by NodeID; these pin what the map it
// replaced guaranteed: only observed IDs are entries, Known is in ID
// order, and Clear leaves nothing behind.
func TestTableSlots(t *testing.T) {
	now := sim.At(time.Second)
	hello := func(id packet.NodeID) *packet.Frame {
		return &packet.Frame{Kind: packet.KindHello, Src: id, Dst: packet.Broadcast}
	}
	tab := NewNeighborTable()
	for _, id := range []packet.NodeID{12, 2, 0xFFFE, 5} {
		tab.Observe(hello(id), now, 0)
	}
	if got := tab.Known(); len(got) != 4 || got[0] != 2 || got[1] != 5 || got[2] != 12 || got[3] != 0xFFFE {
		t.Fatalf("Known = %v, want [2 5 12 65534]", got)
	}
	if tab.Len() != 4 {
		t.Errorf("Len = %d, want 4", tab.Len())
	}
	if d, ok := tab.Delay(0xFFFE); !ok || d != time.Second {
		t.Errorf("Delay(0xFFFE) = %v, %v; want 1s", d, ok)
	}

	// IDs below the highest one seen, never observed, are not entries.
	for _, id := range []packet.NodeID{3, 13, 0xFFFD} {
		tab.MarkSuspect(id)
		if tab.Suspect(id) {
			t.Errorf("Suspect(%d) on an ID never seen", id)
		}
		if _, ok := tab.Age(id, now); ok {
			t.Errorf("Age(%d) found an ID never seen", id)
		}
	}
	if tab.Len() != 4 {
		t.Errorf("Len = %d after MarkSuspect on unseen IDs, want 4", tab.Len())
	}
	tab.MarkSuspect(5)
	if !tab.Suspect(5) {
		t.Error("MarkSuspect(5) did not flag a known entry")
	}

	tab.ObservePair(packet.Broadcast, time.Second, now)
	tab.ObservePair(packet.Nobody, time.Second, now)
	if tab.Len() != 4 {
		t.Errorf("Len = %d after reserved-ID ObservePair, want 4", tab.Len())
	}

	tab.Clear()
	if tab.Len() != 0 || len(tab.Known()) != 0 {
		t.Fatalf("after Clear: Len = %d, Known = %v", tab.Len(), tab.Known())
	}
	tab.Observe(hello(20), now, 0)
	if got := tab.Known(); len(got) != 1 || got[0] != 20 {
		t.Errorf("Known after Clear+Observe = %v, want [20]", got)
	}
	for _, id := range []packet.NodeID{2, 5, 12} {
		if _, ok := tab.Age(id, now); ok || tab.Suspect(id) {
			t.Errorf("stale entry %d survived Clear", id)
		}
	}
	if tab.Len() != 1 {
		t.Errorf("Len = %d after Clear+Observe, want 1", tab.Len())
	}
}
