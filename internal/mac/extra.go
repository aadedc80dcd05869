package mac

import (
	"time"

	"ewmac/internal/obs"
	"ewmac/internal/packet"
	"ewmac/internal/sim"
)

// ---- Extra-exchange helpers (EW-MAC, ROPA, CS-MAC) ----

// RecordExtra records one extra-exchange lifecycle event (request,
// grant, deny, abort or complete) when observing.
func (b *Base) RecordExtra(peer packet.NodeID, action, reason string, xid, parent uint64) {
	if b.Observing() {
		obs.Extra{Node: b.cfg.ID, Peer: peer, Action: action, Reason: reason, XID: xid, Parent: parent}.Emit(b.RecNow())
	}
}

// ClearAtNeighbors is the §4.2 rule that extra communication never
// corrupts a negotiated exchange: it reports whether a transmission
// starting at sendT and lasting dur misses, by guard on either side,
// the predicted receive window of every party to an overheard
// negotiation. target, whose window the caller checks itself, and this
// node are skipped. A party whose delay is unknown fails the check: the
// arrival instant there cannot be predicted, and the paper requires
// certainty.
func (b *Base) ClearAtNeighbors(sendT sim.Time, dur time.Duration, target packet.NodeID, guard time.Duration) bool {
	for _, n := range b.ledger.BusyParties() {
		if n == target || n == b.cfg.ID {
			continue
		}
		tau, known := b.table.Delay(n)
		if !known {
			return false
		}
		iv := Interval{Start: sendT.Add(tau - guard), End: sendT.Add(tau + dur + guard)}
		if b.ledger.RxConflict(n, iv) {
			return false
		}
	}
	return true
}

// DataFrame builds a payload frame of the given kind (Data, EXData or
// StolenData) carrying p to p.Dst as part of exchange xid.
func (b *Base) DataFrame(kind packet.Kind, p AppPacket, xid uint64) *packet.Frame {
	f := b.NewFrame(kind, p.Dst)
	f.DataBits = p.Bits
	f.Seq = p.Seq
	f.Origin = p.Origin
	f.GeneratedAt = p.GeneratedAt
	f.XID = xid
	return f
}

// DeliverExtra counts f, a payload received through an extra exchange,
// as delivered and returns the EXAck that confirms it; the caller
// decides when the reply goes on air.
func (b *Base) DeliverExtra(f *packet.Frame) *packet.Frame {
	b.DeliverData(f, true)
	ack := b.NewFrame(packet.KindEXAck, f.Src)
	ack.XID = f.XID
	ack.Seq = f.Seq
	ack.Origin = f.Origin
	return ack
}
