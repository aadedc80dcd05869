package saloha_test

import (
	"testing"
	"time"

	"ewmac/internal/acoustic"
	"ewmac/internal/energy"
	"ewmac/internal/mac"
	"ewmac/internal/mac/saloha"
	"ewmac/internal/packet"
	"ewmac/internal/phy"
	"ewmac/internal/sim"
)

// tapMedium hands every transmitted frame to onFrame and delivers
// nothing, so every attempt times out unless the test answers it.
type tapMedium struct{ onFrame func(*packet.Frame) }

func (m tapMedium) Broadcast(_ packet.NodeID, f *packet.Frame, _ time.Duration) error {
	m.onFrame(f)
	return nil
}

// TestAckClearsFailedAttempts: a packet acknowledged after k failed
// attempts must not shorten the retry allowance of the next packet.
// With MaxRetries 3, the first packet is acked on its third attempt;
// the second must still get all three attempts before it is dropped.
func TestAckClearsFailedAttempts(t *testing.T) {
	const maxRetries = 3
	eng := sim.NewEngine(1)
	model := acoustic.DefaultModel()
	attempts := make(map[uint32]int)
	var m *saloha.MAC
	medium := tapMedium{onFrame: func(f *packet.Frame) {
		if f.Kind != packet.KindData {
			return
		}
		attempts[f.Seq]++
		if f.Seq == 1 && attempts[1] == maxRetries {
			eng.ScheduleIn(time.Millisecond, sim.PriorityMAC, func() {
				m.OnFrameReceived(&packet.Frame{Kind: packet.KindAck, Src: 2, Dst: 1, Seq: 1})
			})
		}
	}}
	modem, err := phy.NewModem(phy.Config{ID: 1, Engine: eng, Model: model, Medium: medium, Energy: energy.DefaultProfile()})
	if err != nil {
		t.Fatal(err)
	}
	m, err = saloha.New(mac.Config{
		ID: 1, Engine: eng, Modem: modem, BitRate: model.BitRate(), MaxRetries: maxRetries,
		Slots: mac.SlotConfig{Omega: packet.Duration(packet.ControlBits, model.BitRate()), TauMax: model.MaxDelay()},
	})
	if err != nil {
		t.Fatal(err)
	}
	modem.SetListener(m)
	m.Enqueue(mac.AppPacket{Dst: 2, Bits: 1024})
	m.Enqueue(mac.AppPacket{Dst: 2, Bits: 1024})
	m.Start()
	eng.RunUntil(sim.At(3000 * time.Second))

	c := m.Counters()
	if c.AckedPackets != 1 || attempts[1] != maxRetries {
		t.Fatalf("first packet: %d attempts, %d acked; want it acked on attempt %d", attempts[1], c.AckedPackets, maxRetries)
	}
	if attempts[2] != maxRetries || c.DroppedRetry != 1 {
		t.Errorf("second packet: %d attempts before %d retry drops, want %d attempts then one drop",
			attempts[2], c.DroppedRetry, maxRetries)
	}
}
