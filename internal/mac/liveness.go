package mac

import (
	"fmt"

	"ewmac/internal/obs"
	"ewmac/internal/packet"
)

// RecoveryConfig controls the MAC's graceful-degradation layer:
// per-peer liveness tracking (consecutive failed handshakes mark a
// neighbor suspect, then dead) and the stuck-state watchdog. Disabled
// by default — the experiment layer switches it on only when fault
// injection is active, so fault-free runs stay bit-identical to the
// pre-recovery behaviour.
type RecoveryConfig struct {
	// Enabled arms liveness tracking and the watchdog. When false every
	// recovery path is a no-op.
	Enabled bool
}

const (
	// suspectAfter is the consecutive-failure count at which a peer is
	// marked suspect. A suspect peer's delay-table entry is flagged so
	// confidence-aware admission (EW-MAC's stale-delay rule) stops
	// trusting it.
	suspectAfter = 3
	// deadAfter is the consecutive-failure count at which a peer is
	// declared dead. Pending traffic to a dead peer is purged with a
	// typed drop and new contention toward it is suppressed until a
	// frame from the peer is overheard.
	deadAfter = 2 * suspectAfter
	// watchdogFactor scales the stuck-state bound: a node staying in
	// any non-idle handshake role longer than watchdogFactor worst-case
	// exchanges is force-reset through the cold-restart path.
	watchdogFactor = 4
)

// PeerState is the liveness verdict for one neighbor.
type PeerState uint8

// Liveness states. The zero value is alive, so an empty map means
// every peer is presumed reachable.
const (
	PeerAlive PeerState = iota
	PeerSuspect
	PeerDead
)

// String implements fmt.Stringer.
func (s PeerState) String() string {
	switch s {
	case PeerAlive:
		return "alive"
	case PeerSuspect:
		return "suspect"
	case PeerDead:
		return "dead"
	default:
		return fmt.Sprintf("PeerState(%d)", uint8(s))
	}
}

// PeerWatcher is an optional extension of Hooks: protocols that keep
// per-peer scheduling state (EW-MAC's delay table feeding the
// extra-communication admission rules) implement it to quarantine a
// dead peer's state and restore it on resurrection.
type PeerWatcher interface {
	// OnPeerDead fires when the station declares peer dead.
	OnPeerDead(peer packet.NodeID)
	// OnPeerAlive fires when a frame from a suspect/dead peer is
	// overheard and the peer returns to alive.
	OnPeerAlive(peer packet.NodeID)
}

// Stranded counts queued packets whose next hop is currently dead —
// traffic the recovery layer has neither delivered nor dropped with a
// typed reason. A correctly closing recovery loop keeps this at zero.
func (st *Station) Stranded() int {
	if !st.cfg.Recovery.Enabled {
		return 0
	}
	n := 0
	for _, p := range st.queue.Items() {
		if st.peerState[p.Dst] == PeerDead {
			n++
		}
	}
	return n
}

// notePeerFailure records one failed attempt toward peer, walking it
// through suspect and dead. It returns true when this failure just
// killed the peer — the caller's head packet was purged along with
// everything else queued to it.
func (st *Station) notePeerFailure(peer packet.NodeID) bool {
	if !st.cfg.Recovery.Enabled || peer == packet.Nobody || peer == packet.Broadcast {
		return false
	}
	n := st.peerFails[peer] + 1
	st.peerFails[peer] = n
	v := st.peerState[peer]
	if v == PeerAlive && n >= suspectAfter {
		v = PeerSuspect
		st.peerState[peer] = v
		st.counters.SuspectMarks++
		st.emitVerdict(peer, obs.RecoverySuspect, n)
	}
	if v != PeerDead && n >= deadAfter {
		st.peerState[peer] = PeerDead
		st.counters.DeadMarks++
		st.emitVerdict(peer, obs.RecoveryDead, n)
		st.purgeDeadTraffic(peer)
		if st.watcher != nil {
			st.watcher.OnPeerDead(peer)
		}
		return true
	}
	return false
}

// emitVerdict flags peer's delay-table entry (where the MAC keeps one)
// and records its suspect or dead verdict after n consecutive failures.
func (st *Station) emitVerdict(peer packet.NodeID, action string, n int) {
	if st.distrust != nil {
		st.distrust(peer)
	}
	if r := st.cfg.Recorder; r != nil {
		obs.Recovery{
			Node: st.cfg.ID, Peer: peer, Action: action,
			Detail: fmt.Sprintf("%d consecutive %s", n, st.failures),
		}.Emit(r, st.cfg.Engine.Now())
	}
}

// purgeDeadTraffic drops every queued packet destined to peer with a
// typed dead-peer reason, so the queue never retries into a void.
func (st *Station) purgeDeadTraffic(peer packet.NodeID) {
	for i := 0; i < st.queue.Len(); {
		p := st.queue.Items()[i]
		if p.Dst != peer {
			i++
			continue
		}
		st.queue.RemoveAt(i)
		st.dropPacket(p, obs.DropDeadPeer)
	}
}

// HeardFrom notes a decoded frame from peer: it proves the peer
// transmits, so its failure history is cleared and a suspect or dead
// peer is resurrected. (Delay-table trust is tracked separately.)
func (st *Station) HeardFrom(peer packet.NodeID) {
	if !st.cfg.Recovery.Enabled {
		return
	}
	v := st.peerState[peer]
	if v == PeerAlive {
		if st.peerFails[peer] != 0 {
			delete(st.peerFails, peer)
		}
		return
	}
	delete(st.peerFails, peer)
	delete(st.peerState, peer)
	if v == PeerDead {
		st.counters.Resurrections++
		if r := st.cfg.Recorder; r != nil {
			obs.Recovery{
				Node: st.cfg.ID, Peer: peer, Action: obs.RecoveryResurrect,
				Detail: "frame overheard from dead peer",
			}.Emit(r, st.cfg.Engine.Now())
		}
		if st.watcher != nil {
			st.watcher.OnPeerAlive(peer)
		}
	}
}

// Watchdog is the stuck-state backstop: a node that has spent stuck
// slots in state, longer than watchdogFactor worst-case exchanges of
// exchange slots each, is counted and reported, and Watchdog returns
// true so the caller cold-restarts it. Always false unless recovery is
// enabled.
func (st *Station) Watchdog(state string, stuck, exchange int64) bool {
	if !st.cfg.Recovery.Enabled {
		return false
	}
	bound := watchdogFactor * exchange
	if stuck <= bound {
		return false
	}
	st.counters.WatchdogResets++
	if r := st.cfg.Recorder; r != nil {
		obs.Recovery{
			Node: st.cfg.ID, Action: obs.RecoveryWatchdog,
			Detail: fmt.Sprintf("stuck in %s for %d slots (bound %d)", state, stuck, bound),
		}.Emit(r, st.cfg.Engine.Now())
	}
	return true
}

// watchdogCheck force-resets a MAC stuck in a non-idle role, through
// the cold-restart path. The bound is derived from the delay budget of
// the exchange actually in flight: RTS, CTS, the data occupancy of
// Equation (5), and the Ack slot.
func (b *Base) watchdogCheck(s int64) {
	if !b.cfg.Recovery.Enabled || b.role == RoleIdle {
		return
	}
	dataTx := b.cfg.Slots.Len()
	switch {
	case b.role == RoleWaitData:
		dataTx = b.rxDataTx
	case b.hasCur:
		dataTx = b.DataTx(b.cur.Bits)
	}
	exchange := 4 + b.cfg.Slots.DataSlots(dataTx, b.cfg.Slots.TauMax)
	if b.Watchdog(b.role.String(), s-b.roleSlot, exchange) {
		b.Restart()
	}
}
