package mac

import (
	"testing"
	"time"

	"ewmac/internal/acoustic"
	"ewmac/internal/energy"
	"ewmac/internal/packet"
	"ewmac/internal/phy"
	"ewmac/internal/sim"
)

// captureMedium keeps every transmitted frame.
type captureMedium struct{ frames []*packet.Frame }

func (c *captureMedium) Broadcast(_ packet.NodeID, f *packet.Frame, _ time.Duration) error {
	c.frames = append(c.frames, f)
	return nil
}

// TestTwoHopRotation: with more table entries than MaintenanceEntries,
// each NbrUpdate carries the next MaintenanceEntries entries, the
// cursor wraps, every entry goes out over successive broadcasts, and
// the broadcast carries no piggybacked entries on top of its excerpt.
func TestTwoHopRotation(t *testing.T) {
	eng := sim.NewEngine(1)
	model := acoustic.DefaultModel()
	medium := &captureMedium{}
	modem, err := phy.NewModem(phy.Config{ID: 1, Engine: eng, Model: model, Medium: medium, Energy: energy.DefaultProfile()})
	if err != nil {
		t.Fatal(err)
	}
	const period = 10 * time.Second
	var th TwoHop
	b, err := th.NewBase(Config{ID: 1, Engine: eng, Modem: modem, Slots: paperSlots(), BitRate: model.BitRate()},
		TwoHopOptions{MaintenanceEntries: 3},
		TwoHopOptions{Guard: time.Millisecond, UpdatePeriod: period, MaintenanceEntries: 8, PiggybackEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	b.SetHooks(&th)
	if want := packet.Duration(2*packet.NeighborInfoBits, model.BitRate()); b.Slots().Pad != want {
		t.Errorf("control padding = %v, want two entries (%v)", b.Slots().Pad, want)
	}
	for id := packet.NodeID(2); id <= 8; id++ {
		b.Table().ObservePair(id, time.Duration(id)*10*time.Millisecond, 0)
	}

	want := [][]packet.NodeID{{2, 3, 4}, {5, 6, 7}, {8, 2, 3}, {4, 5, 6}, {7, 8, 2}}
	sent := make(map[packet.NodeID]bool)
	for k, ids := range want {
		// The first broadcast is staggered by less than one period.
		eng.RunUntil(sim.At(time.Duration(k+1) * period))
		th.OnSlotStart(0)
		if len(medium.frames) != k+1 {
			t.Fatalf("broadcast %d: %d frames on air, want %d", k, len(medium.frames), k+1)
		}
		upd := medium.frames[k]
		if upd.Kind != packet.KindNbrUpdate || upd.Dst != packet.Broadcast {
			t.Fatalf("broadcast %d is %v to %v, want a broadcast NbrUpdate", k, upd.Kind, upd.Dst)
		}
		if len(upd.Neighbors) != len(ids) {
			t.Fatalf("broadcast %d carries %d entries, want %d (no piggyback on top)", k, len(upd.Neighbors), len(ids))
		}
		for i, id := range ids {
			if upd.Neighbors[i].ID != id {
				t.Errorf("broadcast %d entry %d = node %v, want %v", k, i, upd.Neighbors[i].ID, id)
			}
			sent[id] = true
		}
		if k == 2 && len(sent) != 7 {
			t.Errorf("after three broadcasts %d of 7 entries went out", len(sent))
		}
	}
	if got := b.Counters().MaintenanceBits; got == 0 {
		t.Error("NbrUpdate bits not counted as maintenance overhead")
	}

	// A control frame carries the first PiggybackEntries entries.
	rts := b.NewFrame(packet.KindRTS, 2)
	th.Piggyback(rts)
	if len(rts.Neighbors) != 2 || rts.Neighbors[0].ID != 2 || rts.Neighbors[1].ID != 3 {
		t.Errorf("control piggyback = %v, want nodes 2 and 3", rts.Neighbors)
	}
}

// TestClearAtNeighbors checks the shared §4.2 receive-window rule
// against one confirmed exchange 3→4 whose data lands at 4 in slot 102.
func TestClearAtNeighbors(t *testing.T) {
	const (
		pair   = 300 * time.Millisecond
		dataTx = 200 * time.Millisecond
		tau3   = 400 * time.Millisecond // this node (1) to sender 3
		tau4   = 500 * time.Millisecond // this node (1) to receiver 4
		dur    = 20 * time.Millisecond
		guard  = 2 * time.Millisecond
	)
	slots := paperSlots()
	dataAt := slots.StartOf(102).Add(pair) // data window at 4: [dataAt, dataAt+dataTx)
	inWindow := dataAt.Add(50*time.Millisecond - tau4)
	justBefore := dataAt.Add(-dur - time.Millisecond - tau4) // arrival ends 1 ms before the window
	early := slots.StartOf(90)

	cases := []struct {
		name   string
		sendT  sim.Time
		target packet.NodeID
		guard  time.Duration
		extra  *Exchange // a second overheard exchange, if any
		want   bool
	}{
		{name: "clear", sendT: early, guard: guard, want: true},
		{name: "conflict at receiver", sendT: inWindow, guard: guard, want: false},
		{name: "target excluded", sendT: inWindow, target: 4, guard: guard, want: true},
		{name: "guard widens window", sendT: justBefore, guard: guard, want: false},
		{name: "no guard", sendT: justBefore, want: true},
		{
			name: "unknown-delay party", sendT: early, guard: guard, want: false,
			extra: &Exchange{Sender: 5, Receiver: 9, RTSSlot: 200, PairDelay: pair, DataTx: dataTx},
		},
		{
			name: "self excluded", sendT: early, guard: guard, want: true,
			extra: &Exchange{Sender: 1, Receiver: 3, RTSSlot: 200, PairDelay: pair, DataTx: dataTx, Confirmed: true},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, _ := testBase(t)
			b.Table().ObservePair(3, tau3, 0)
			b.Table().ObservePair(4, tau4, 0)
			b.Table().ObservePair(5, tau3, 0)
			b.ledger.exchanges = append(b.ledger.exchanges,
				&Exchange{Sender: 3, Receiver: 4, RTSSlot: 100, PairDelay: pair, DataTx: dataTx, Confirmed: true})
			if tc.extra != nil {
				b.ledger.exchanges = append(b.ledger.exchanges, tc.extra)
			}
			if got := b.ClearAtNeighbors(tc.sendT, dur, tc.target, tc.guard); got != tc.want {
				t.Errorf("ClearAtNeighbors = %v, want %v", got, tc.want)
			}
		})
	}
}
