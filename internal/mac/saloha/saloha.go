// Package saloha implements slotted ALOHA with acknowledgements — an
// extension baseline beyond the paper's evaluation set. It skips the
// RTS/CTS negotiation entirely: a backlogged node transmits its data
// packet at a slot boundary and waits one round trip for the Ack,
// backing off binary-exponentially on silence.
//
// It exists for two reasons. First, as the classic lower anchor for
// handshake protocols: without reservations, every overlapping data
// packet is lost whole, so ALOHA collapses far earlier than S-FAMA as
// load grows. Second, as a demonstration that the framework's station
// core — slot loop, queue and overload protection, liveness, backoff,
// dedup — composes into protocols that do not share the
// four-way-handshake engine at all.
package saloha

import (
	"ewmac/internal/mac"
	"ewmac/internal/obs"
	"ewmac/internal/packet"
	"ewmac/internal/phy"
	"ewmac/internal/sim"
)

// MAC is the slotted-ALOHA protocol. It embeds the shared station core
// (queue, admission, retry budget, liveness, backoff, dedup) but not
// the four-way-handshake engine: its slot handler runs Data→Ack rounds
// only.
type MAC struct {
	mac.Station

	waitingAck  bool
	ackDeadline int64
	// waitSlot is the slot the current ack wait started at (watchdog
	// input); sentXID is the lineage of the data transmission awaiting
	// its Ack.
	waitSlot int64
	sentXID  uint64
}

var _ mac.Protocol = (*MAC)(nil)

// New builds a slotted-ALOHA node.
func New(cfg mac.Config) (*MAC, error) {
	m := &MAC{}
	if err := m.Init(cfg, "saloha", "ack timeouts"); err != nil {
		return nil, err
	}
	return m, nil
}

// Name implements mac.Protocol.
func (m *MAC) Name() string { return "S-ALOHA" }

// Start implements mac.Protocol.
func (m *MAC) Start() { m.RunSlots(m.onSlot) }

// Restart cold-starts the node after a crash/recovery cycle: the
// in-flight ack wait is forgotten along with the station's soft state.
func (m *MAC) Restart() {
	m.setWaiting(false, m.Slots().SlotAt(m.Engine().Now()))
	m.Station.Restart()
}

// setWaiting flips the single piece of protocol state S-ALOHA has,
// recording it as an idle/wait-ack transition.
func (m *MAC) setWaiting(w bool, slot int64) {
	if m.Observing() && w != m.waitingAck {
		from, to := "idle", "wait-ack"
		if !w {
			from, to = to, from
		}
		obs.MACState{Node: m.ID(), From: from, To: to, Slot: slot}.Emit(m.RecNow())
	}
	m.waitingAck = w
}

func (m *MAC) onSlot(s int64) {
	// The watchdog backstop for a node wedged in its ack wait far past
	// the deadline (the timeout below should always fire first).
	if m.waitingAck && m.Watchdog("wait-ack", s-m.waitSlot, m.ackDeadline-m.waitSlot+2) {
		m.Restart()
	}
	if m.waitingAck {
		if s >= m.ackDeadline {
			m.timeout(s)
		}
		return
	}
	head, ok := m.NextHead(s)
	if !ok || !m.ReadyToSend(s) {
		return
	}
	// Each transmission attempt is its own exchange: a retransmission
	// after a lost Ack gets a fresh lineage, like a fresh RTS round in
	// the handshake protocols.
	f := &packet.Frame{
		Kind:        packet.KindData,
		Src:         m.ID(),
		Dst:         head.Dst,
		Seq:         head.Seq,
		Origin:      head.Origin,
		GeneratedAt: head.GeneratedAt,
		DataBits:    head.Bits,
		Timestamp:   m.LocalNow().Duration(),
		XID:         m.NewXID(),
	}
	if err := m.Modem().Transmit(f); err != nil {
		return
	}
	m.setWaiting(true, s)
	m.Launched(head)
	m.waitSlot = s
	m.sentXID = f.XID
	// The data may span several slots (Equation (5)); the Ack comes one
	// slot after it fully arrives, worst case τmax away.
	slots := m.Slots()
	dataTx := packet.Duration(packet.DataHeaderBits+head.Bits, m.BitRate())
	m.ackDeadline = slots.AckSlot(s, dataTx, slots.TauMax) + 2
}

// timeout ends an unanswered ack wait (ALOHA has no RTS round; the ack
// wait is its whole contention) and backs off. The head stays pinned
// until the failure is booked, so no shedding scan can swap it out.
func (m *MAC) timeout(s int64) {
	m.setWaiting(false, s)
	c := m.CountersRef()
	c.Retransmissions++
	head, ok := m.Queue().Peek()
	if ok {
		if m.Observing() {
			obs.Contention{
				Node: m.ID(), Peer: head.Dst,
				Outcome: obs.ContentionTimeout, Slot: s, XID: m.sentXID,
			}.Emit(m.RecNow())
		}
		c.RetransmittedBits += uint64(head.Bits)
	}
	m.FailAttempt(s, ok)
	m.Queue().UnlockHead()
}

// OnFrameReceived implements phy.Listener.
func (m *MAC) OnFrameReceived(f *packet.Frame) {
	m.HeardFrom(f.Src)
	switch f.Kind {
	case packet.KindData:
		if f.Dst != m.ID() {
			return
		}
		m.DeliverData(f, false)
		ack := &packet.Frame{
			Kind: packet.KindAck, Src: m.ID(), Dst: f.Src, Seq: f.Seq,
			Timestamp: m.LocalNow().Duration(), XID: f.XID,
		}
		// The Ack goes out at the next slot boundary to keep the
		// channel slot-aligned.
		slots := m.Slots()
		at := slots.StartOf(slots.SlotAt(m.Engine().Now()) + 1)
		m.ScheduleClamped(at, sim.PriorityMAC, func() {
			ack.Timestamp = m.LocalNow().Duration()
			_ = m.Modem().Transmit(ack)
		})
	case packet.KindAck:
		if f.Dst != m.ID() || !m.waitingAck {
			return
		}
		// While waiting, the pinned queue head is the packet in flight.
		if head, _ := m.Queue().Peek(); f.Seq != head.Seq {
			return
		}
		m.setWaiting(false, m.Slots().SlotAt(m.Engine().Now()))
		m.HeadAcked()
	default:
		// ALOHA ignores every negotiation frame.
	}
}

// OnFrameLost implements phy.Listener.
func (m *MAC) OnFrameLost(*packet.Frame, phy.LossReason) {}

// OnTxDone implements phy.Listener.
func (m *MAC) OnTxDone(*packet.Frame) {}
