package mac

import (
	"testing"

	"ewmac/internal/acoustic"
	"ewmac/internal/energy"
	"ewmac/internal/obs"
	"ewmac/internal/packet"
	"ewmac/internal/phy"
	"ewmac/internal/sim"
)

// TestLivenessThresholds pins the recovery constants: a peer turns
// suspect on its 3rd consecutive failure and dead on its 6th, its
// queued traffic drops as dead-peer, a frame from it resurrects it, and
// the watchdog fires only past 4× the exchange length.
func TestLivenessThresholds(t *testing.T) {
	eng := sim.NewEngine(1)
	model := acoustic.DefaultModel()
	modem, err := phy.NewModem(phy.Config{ID: 1, Engine: eng, Model: model, Medium: sinkMedium{}, Energy: energy.DefaultProfile()})
	if err != nil {
		t.Fatal(err)
	}
	var drops []obs.PacketDrop
	rec := obs.RecorderFunc(func(_ sim.Time, e obs.Event) {
		if d, ok := e.(*obs.PacketDrop); ok {
			drops = append(drops, *d)
		}
	})
	var st Station
	if err := st.Init(Config{
		ID: 1, Engine: eng, Modem: modem, Slots: paperSlots(), BitRate: model.BitRate(),
		Recorder: rec, Recovery: RecoveryConfig{Enabled: true},
	}, "test", "failures"); err != nil {
		t.Fatal(err)
	}
	const peer packet.NodeID = 9
	st.Enqueue(AppPacket{Dst: peer, Bits: 1024})
	st.Enqueue(AppPacket{Dst: 7, Bits: 1024})
	st.Enqueue(AppPacket{Dst: peer, Bits: 1024})

	for n := 1; n <= 6; n++ {
		died := st.notePeerFailure(peer)
		want := PeerAlive
		switch {
		case n >= 6:
			want = PeerDead
		case n >= 3:
			want = PeerSuspect
		}
		if got := st.peerState[peer]; got != want {
			t.Errorf("after failure %d: peer is %v, want %v", n, got, want)
		}
		if died != (n == 6) {
			t.Errorf("failure %d reported death = %v", n, died)
		}
	}
	if len(drops) != 2 {
		t.Fatalf("dropped %d packets on death, want the 2 queued to the peer", len(drops))
	}
	for _, d := range drops {
		if d.Peer != peer || d.Reason != obs.DropDeadPeer {
			t.Errorf("drop %+v, want peer %v with reason %q", d, peer, obs.DropDeadPeer)
		}
	}
	if st.QueueLen() != 1 {
		t.Errorf("queue holds %d packets, want only the one to another peer", st.QueueLen())
	}
	if c := st.Counters(); c.SuspectMarks != 1 || c.DeadMarks != 1 || c.DroppedDeadPeer != 2 {
		t.Errorf("counters suspect=%d dead=%d dead-peer drops=%d, want 1, 1, 2",
			c.SuspectMarks, c.DeadMarks, c.DroppedDeadPeer)
	}

	st.HeardFrom(peer)
	if got := st.peerState[peer]; got != PeerAlive {
		t.Errorf("after HeardFrom: peer is %v, want alive", got)
	}
	if st.peerFails[peer] != 0 || st.Counters().Resurrections != 1 {
		t.Errorf("resurrection left %d failures, counted %d resurrections",
			st.peerFails[peer], st.Counters().Resurrections)
	}

	const exchange = 5
	if st.Watchdog("wait-cts", 4*exchange, exchange) {
		t.Error("watchdog fired at exactly 4× the exchange")
	}
	if !st.Watchdog("wait-cts", 4*exchange+1, exchange) {
		t.Error("watchdog silent one slot past 4× the exchange")
	}
}
