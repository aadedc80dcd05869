package mac

import (
	"fmt"
	"time"

	"ewmac/internal/obs"
	"ewmac/internal/packet"
	"ewmac/internal/phy"
	"ewmac/internal/sim"
)

// cwMin is the floor of the binary-exponential backoff window, in
// slots: the window starts there and shrinks back to it on every Ack.
const cwMin = 2

// Station is the protocol-independent core of one MAC node: the
// defaulted config and named random stream, the transmit queue with
// its admission gate and retry budget, per-peer liveness, failed-
// attempt bookkeeping (retry exhaustion and binary-exponential
// backoff), delivered-payload dedup, exchange-lineage allocation, the
// local clock, and the clock-aware slot loop. Every MAC embeds it by
// value — Base adds the four-way handshake on top, S-ALOHA its
// Data→Ack rounds — so the shared plumbing exists once.
//
// A Station is initialized in place with Init. It arms nothing by
// itself: the embedding MAC starts the slot loop and calls the helpers
// below from its own slot handler.
type Station struct {
	cfg   Config
	rng   *sim.RNG
	queue Queue
	// Overload-protection state (see overload.go): the hysteresis
	// admission gate and the per-node retry token bucket.
	gate   admissionGate
	bucket retryBucket

	// Failed-attempt state: the packet of the latest transmission
	// attempt, consecutive failed attempts at the head, the backoff
	// slots still to wait, the contention window, and the slot at which
	// the current head started waiting at the front.
	cur         AppPacket
	curAttempts int
	backoffLeft int
	cw          int
	headSince   int64

	// seq numbers this node's own payloads; xidSeq allocates
	// exchange-lineage IDs.
	seq    uint32
	xidSeq uint64
	// seen dedupes retransmitted payloads: origin<<32|seq.
	seen map[uint64]struct{}

	// Liveness state (see liveness.go): consecutive failed attempts per
	// peer and the resulting verdicts. failures words the recovery
	// events ("handshake failures", "ack timeouts"); distrust, when
	// set, flags a peer's delay-table entry on every suspect or dead
	// verdict; watcher, when set, hears dead and resurrected peers.
	peerFails map[packet.NodeID]int
	peerState map[packet.NodeID]PeerState
	failures  string
	distrust  func(packet.NodeID)
	watcher   PeerWatcher

	counters Counters
	started  bool
	nextSlot int64
}

// Init validates cfg, fills its defaults and wires the station in
// place. stream names the node's random stream ("<stream>/<id>") and
// failures words its recovery events ("%d consecutive <failures>").
func (st *Station) Init(cfg Config, stream, failures string) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	cfg.applyDefaults()
	*st = Station{
		cfg:       cfg,
		rng:       cfg.Engine.RNG(fmt.Sprintf("%s/%d", stream, cfg.ID)),
		gate:      newAdmissionGate(cfg),
		bucket:    newRetryBucket(cfg),
		cw:        cwMin,
		seen:      make(map[uint64]struct{}),
		peerFails: make(map[packet.NodeID]int),
		peerState: make(map[packet.NodeID]PeerState),
		failures:  failures,
	}
	st.queue = newQueue(cfg,
		func() time.Duration { return cfg.Engine.Now().Duration() },
		st.dropPacket, st.queueEvent)
	return nil
}

// Accessors used by protocol implementations and tests.

// ID returns the node ID.
func (st *Station) ID() packet.NodeID { return st.cfg.ID }

// Engine returns the simulation engine.
func (st *Station) Engine() *sim.Engine { return st.cfg.Engine }

// Modem returns the PHY.
func (st *Station) Modem() *phy.Modem { return st.cfg.Modem }

// Slots returns the slot geometry.
func (st *Station) Slots() SlotConfig { return st.cfg.Slots }

// BitRate returns the modem bit rate.
func (st *Station) BitRate() float64 { return st.cfg.BitRate }

// Queue returns the transmit queue.
func (st *Station) Queue() *Queue { return &st.queue }

// RNG returns this node's deterministic random stream.
func (st *Station) RNG() *sim.RNG { return st.rng }

// Counters implements Protocol.
func (st *Station) Counters() Counters { return st.counters }

// CountersRef gives protocol code mutable access to the counters.
func (st *Station) CountersRef() *Counters { return &st.counters }

// QueueLen implements Protocol.
func (st *Station) QueueLen() int { return st.queue.Len() }

// Observing reports whether an observability recorder is attached.
// Emission sites use it to skip event construction entirely when
// observability is off.
func (st *Station) Observing() bool { return st.cfg.Recorder != nil }

// RecNow returns the recorder and current instant, shaped so emission
// sites read obs.X{...}.Emit(st.RecNow()) and go through the pooled,
// non-boxing record path. The recorder may be nil; Emit drops the
// event without constructing a record.
func (st *Station) RecNow() (obs.Recorder, sim.Time) {
	return st.cfg.Recorder, st.cfg.Engine.Now()
}

// LocalNow returns the node's current local clock reading as a
// sim.Time (identical to engine time under a nil Clock).
func (st *Station) LocalNow() sim.Time {
	now := st.cfg.Engine.Now()
	if st.cfg.Clock == nil {
		return now
	}
	return sim.At(st.cfg.Clock.Local(now))
}

// NewXID allocates a fresh exchange-lineage ID, unique across the run:
// the high half is the node, the low half a per-node counter. It draws
// no randomness, so allocating (or not) never shifts the RNG streams
// behind the determinism guarantees.
func (st *Station) NewXID() uint64 {
	st.xidSeq++
	return uint64(st.cfg.ID)<<32 | st.xidSeq
}

// ScheduleClamped schedules fn at t, clamped to now if t is already
// past. Protocol timers computed from received frame timestamps must
// use this instead of Engine.MustScheduleAt: under injected clock
// drift a peer's stamp can place a deadline behind the present, and
// the graceful degradation is a timer that fires at once, not a
// panicking engine.
func (st *Station) ScheduleClamped(t sim.Time, prio sim.Priority, fn func()) sim.Handle {
	if now := st.cfg.Engine.Now(); t.Before(now) {
		t = now
	}
	return st.cfg.Engine.MustScheduleAt(t, prio, fn)
}

// ---- Slot loop ----

// RunSlots starts the slot loop with onSlot as the handler of every
// boundary; a no-op once the station is started. (Base runs the same
// loop through its own Start, calling its handler directly.)
func (st *Station) RunSlots(onSlot func(slot int64)) {
	if !st.armSlots() {
		return
	}
	var next func()
	next = func() {
		slot, at := st.nextBoundary()
		st.cfg.Engine.MustScheduleAt(at, sim.PriorityMAC, func() {
			onSlot(slot)
			next()
		})
	}
	next()
}

// armSlots marks the station started and aligns its slot loop to the
// first boundary at or after now. It reports false if the station was
// already started.
func (st *Station) armSlots() bool {
	if st.started {
		return false
	}
	st.started = true
	now := st.cfg.Engine.Now()
	st.nextSlot = st.cfg.Slots.SlotAt(now)
	if st.cfg.Slots.StartOf(st.nextSlot) != now {
		st.nextSlot++
	}
	return true
}

// nextBoundary consumes the next slot of the loop and returns it with
// the true instant at which this node fires its boundary: where its
// *local* clock claims the slot starts, so drift shifts it relative to
// the true grid. A clock corrected backwards can map the boundary into
// the past — the node is simply late, not entitled to time travel.
func (st *Station) nextBoundary() (int64, sim.Time) {
	slot := st.nextSlot
	st.nextSlot++
	at := st.cfg.Slots.StartOf(slot)
	if st.cfg.Clock != nil {
		at = st.cfg.Clock.TrueTime(at.Duration())
		if now := st.cfg.Engine.Now(); at.Before(now) {
			at = now
		}
	}
	return slot, at
}

// ---- Transmit queue and overload protection ----

// Enqueue implements Protocol.
func (st *Station) Enqueue(p AppPacket) {
	if p.Origin == packet.Nobody {
		p.Origin = st.cfg.ID
	}
	if p.Seq == 0 {
		st.seq++
		p.Seq = st.seq
	}
	// Every offered packet counts as generated — it is real demand —
	// whether it queues or is refused with a typed drop below.
	st.counters.Generated++
	if st.cfg.Recovery.Enabled && st.peerState[p.Dst] == PeerDead {
		// Never queue up behind a corpse.
		st.dropPacket(p, obs.DropDeadPeer)
		return
	}
	if ttl := st.cfg.Overload.PacketTTL; ttl > 0 && p.Deadline == 0 {
		p.Deadline = p.GeneratedAt + ttl
	}
	if st.gate.Enabled() && !(st.cfg.Overload.Priority && p.High) && st.gateClosed() {
		st.dropPacket(p, obs.DropShed)
		return
	}
	if !st.queue.Push(p) {
		st.dropPacket(p, obs.DropQueueFull)
	}
}

// Backpressure reports whether the admission gate is currently closed,
// re-evaluated against live occupancy. Closed-loop traffic generators
// consult it to throttle offered load at the source; always false when
// admission control is not configured.
func (st *Station) Backpressure() bool {
	return st.gate.Enabled() && st.gateClosed()
}

// gateClosed re-evaluates the admission gate against live occupancy,
// recording the shed-begin/end transition if it just flipped.
func (st *Station) gateClosed() bool {
	closed, changed := st.gate.Update(st.queue.Len())
	if changed {
		if closed {
			st.emitOverload(obs.OverloadShedBegin)
		} else {
			st.emitOverload(obs.OverloadShedEnd)
		}
	}
	return closed
}

// emitOverload records one overload-protection lifecycle step.
func (st *Station) emitOverload(action string) {
	if r := st.cfg.Recorder; r != nil {
		obs.Overload{Node: st.cfg.ID, Action: action, Len: st.queue.Len()}.Emit(r, st.cfg.Engine.Now())
	}
}

// queueEvent observes transmit-queue occupancy changes (the Queue's
// OnEvent hook): depth after each push/pop, plus the serviced packet's
// generation→dequeue sojourn on pop.
func (st *Station) queueEvent(pushed bool, p AppPacket) {
	r := st.cfg.Recorder
	if r == nil {
		return
	}
	now := st.cfg.Engine.Now()
	ev := obs.QueueDepth{Node: st.cfg.ID, Len: st.queue.Len(), Op: obs.QueuePush}
	if !pushed {
		ev.Op = obs.QueuePop
		ev.Sojourn = now.Duration() - p.GeneratedAt
	}
	ev.Emit(r, now)
}

// dropPacket accounts one abandoned packet under the given typed
// reason. It doubles as the Queue's OnDrop hook, so policy evictions
// (expiry, drop-oldest, priority displacement) land here too.
func (st *Station) dropPacket(p AppPacket, reason string) {
	st.counters.countDrop(reason)
	if r := st.cfg.Recorder; r != nil {
		obs.PacketDrop{
			Node: st.cfg.ID, Peer: p.Dst, Reason: reason,
			Origin: p.Origin, Seq: p.Seq,
		}.Emit(r, st.cfg.Engine.Now())
	}
}

// ---- Transmission attempts ----

// NextHead returns the queue head this node should try to send at slot
// s. Sinks never send. A head bound for a dead peer is abandoned with a
// typed drop rather than retried into a void. If the backlog was
// reshuffled between failed attempts (a priority insert or a deadline
// eviction changed the head), the failure history belonged to the old
// head and is forgotten.
func (st *Station) NextHead(s int64) (AppPacket, bool) {
	if st.cfg.IsSink {
		return AppPacket{}, false
	}
	head, ok := st.queue.Peek()
	if !ok {
		st.headSince = s
		return AppPacket{}, false
	}
	if st.cfg.Recovery.Enabled && st.peerState[head.Dst] == PeerDead {
		st.queue.Pop()
		st.dropPacket(head, obs.DropDeadPeer)
		st.headSince = s
		return AppPacket{}, false
	}
	if st.curAttempts > 0 &&
		(st.cfg.Overload.Priority || st.cfg.Overload.Policy == DropDeadline) &&
		(head.Origin != st.cur.Origin || head.Seq != st.cur.Seq) {
		st.curAttempts = 0
		st.headSince = s
	}
	return head, true
}

// ReadyToSend reports whether the node may start an attempt at slot s:
// its transducer is idle, its backoff has run out (each call while
// backing off counts one slot down), and — for a retry — the retry
// budget has a token. A retry with an empty budget is deferred to a
// later slot, never dropped; first attempts are never gated.
func (st *Station) ReadyToSend(s int64) bool {
	if st.cfg.Modem.Transmitting() || st.cfg.Modem.Receiving() {
		return false
	}
	if st.backoffLeft > 0 {
		st.backoffLeft--
		return false
	}
	if st.curAttempts > 0 && !st.bucket.Allow(s) {
		st.counters.RetryDeferrals++
		st.emitOverload(obs.OverloadRetryDefer)
		return false
	}
	return true
}

// Launched records p, the queue head, as the packet of the attempt
// just put on air and pins it against every shedding scan until the
// attempt resolves.
func (st *Station) Launched(p AppPacket) {
	st.queue.LockHead()
	st.cur = p
}

// FailAttempt books one failed attempt at slot s. With inFlight set,
// the failure counts against the attempted packet's next hop and may
// declare it dead, purging its traffic; otherwise, after MaxRetries
// consecutive failures the head is dropped as retry-exhausted. Either
// way the node then backs off for a random number of slots within the
// contention window, which doubles up to CWMax.
func (st *Station) FailAttempt(s int64, inFlight bool) {
	st.curAttempts++
	if inFlight && st.notePeerFailure(st.cur.Dst) {
		// This failure just killed the peer; the head (and everything
		// else queued to it) was purged with a typed dead-peer drop.
		st.curAttempts = 0
		st.headSince = s
	} else if st.cfg.MaxRetries > 0 && st.curAttempts >= st.cfg.MaxRetries {
		if p, ok := st.queue.Pop(); ok {
			st.dropPacket(p, obs.DropRetryExhausted)
		}
		st.curAttempts = 0
		st.headSince = s
	}
	st.backoffLeft = 1 + st.rng.Intn(st.cw)
	if st.cw < st.cfg.CWMax {
		st.cw *= 2
		if st.cw > st.cfg.CWMax {
			st.cw = st.cfg.CWMax
		}
	}
}

// HeadAcked completes the acknowledged queue head: it is popped and
// counted, the contention window shrinks back to cwMin, and the next
// head starts with a clean slate — no failure history, its wait
// starting now.
func (st *Station) HeadAcked() {
	st.queue.Pop()
	st.counters.AckedPackets++
	st.cw = cwMin
	st.curAttempts = 0
	st.headSince = st.cfg.Slots.SlotAt(st.cfg.Engine.Now())
}

// ---- Reception ----

// DeliverData counts a received payload exactly once per (origin, seq).
// extra marks delivery through an extra/appended/stolen exchange.
func (st *Station) DeliverData(f *packet.Frame, extra bool) {
	key := uint64(f.Origin)<<32 | uint64(f.Seq)
	if _, dup := st.seen[key]; dup {
		st.counters.DuplicatesRx++
		return
	}
	st.seen[key] = struct{}{}
	st.counters.DeliveredPackets++
	st.counters.DeliveredBits += uint64(f.DataBits)
	if extra {
		st.counters.ExtraDeliveredPackets++
	}
	latency := st.cfg.Engine.Now().Duration() - f.GeneratedAt
	st.counters.LatencySum += latency
	if r := st.cfg.Recorder; r != nil {
		obs.Delivery{
			Node: st.cfg.ID, Origin: f.Origin, Seq: f.Seq,
			Bits: f.DataBits, Latency: latency, Extra: extra, XID: f.XID,
		}.Emit(r, st.cfg.Engine.Now())
	}
}

// Restart forgets the station's soft state after a crash/recovery
// cycle: the in-flight pin, failure count, backoff and window, and the
// liveness history — every peer is presumed alive until it fails
// again. The queue, the dedupe set and the counters survive: they model
// the application buffer and the metrics plane, not the MAC's volatile
// state. MACs shadow it with their own Restart and call it from there.
func (st *Station) Restart() {
	st.queue.UnlockHead()
	st.curAttempts = 0
	st.backoffLeft = 0
	st.cw = cwMin
	st.peerFails = make(map[packet.NodeID]int)
	st.peerState = make(map[packet.NodeID]PeerState)
	st.headSince = st.cfg.Slots.SlotAt(st.cfg.Engine.Now())
}
