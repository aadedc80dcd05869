package mac

import (
	"time"

	"ewmac/internal/packet"
	"ewmac/internal/sim"
)

// TwoHopOptions tune the two-hop neighbor upkeep of ROPA and CS-MAC. A
// zero field takes the protocol's default.
type TwoHopOptions struct {
	// Guard is the scheduling safety margin of the protocol's extra
	// exchanges.
	Guard time.Duration
	// UpdatePeriod is the interval between NbrUpdate broadcasts.
	UpdatePeriod time.Duration
	// MaintenanceEntries caps neighbor entries per NbrUpdate broadcast;
	// entries rotate across broadcasts.
	MaintenanceEntries int
	// PiggybackEntries is how many neighbor entries ride on each
	// control frame.
	PiggybackEntries int
}

// TwoHop is the two-hop neighbor upkeep ROPA and CS-MAC share — the
// overhead and energy cost the paper charges them with (Figures 9 and
// 10): every control frame carries a slice of the node's delay table,
// and a periodic NbrUpdate broadcast circulates the rest of it. A
// protocol embeds TwoHop by value in place of DefaultHooks, whose other
// hooks it carries, and builds its Base through TwoHop.NewBase.
type TwoHop struct {
	DefaultHooks
	b          *Base
	opts       TwoHopOptions
	lastUpdate sim.Time
	rotCursor  int
}

// NewBase fills the zero fields of opts from def, pads cfg's control
// frames for PiggybackEntries neighbor entries, and builds the Base.
// The first broadcast is staggered per node by one draw from the node's
// random stream, so updates do not synchronize into collision storms.
func (th *TwoHop) NewBase(cfg Config, opts, def TwoHopOptions) (*Base, error) {
	if opts.Guard <= 0 {
		opts.Guard = def.Guard
	}
	if opts.UpdatePeriod <= 0 {
		opts.UpdatePeriod = def.UpdatePeriod
	}
	if opts.MaintenanceEntries <= 0 {
		opts.MaintenanceEntries = def.MaintenanceEntries
	}
	if opts.PiggybackEntries <= 0 {
		opts.PiggybackEntries = def.PiggybackEntries
	}
	cfg.Slots.Pad = packet.Duration(opts.PiggybackEntries*packet.NeighborInfoBits, cfg.BitRate)
	b, err := NewBase(cfg)
	if err != nil {
		return nil, err
	}
	*th = TwoHop{
		b:          b,
		opts:       opts,
		lastUpdate: sim.At(-time.Duration(b.RNG().Int63n(int64(opts.UpdatePeriod)))),
	}
	return b, nil
}

// Guard returns the scheduling safety margin.
func (th *TwoHop) Guard() time.Duration { return th.opts.Guard }

// Piggyback implements Hooks: a control frame carries the first
// PiggybackEntries entries of the delay table, so two-hop state
// propagates. An NbrUpdate already carries its own excerpt, and a
// frame the protocol sized before sending (ROPA's RTA and EXC) already
// carries its entries, so SendNow's call leaves both as they are.
func (th *TwoHop) Piggyback(f *packet.Frame) {
	if f.Kind == packet.KindNbrUpdate || len(f.Neighbors) > 0 {
		return
	}
	snap := th.b.table.Snapshot(th.opts.PiggybackEntries)
	f.Neighbors = append(f.Neighbors, snap...)
}

// OnSlotStart implements Hooks: once UpdatePeriod has passed since the
// last one, an idle, unheld node outside every overheard exchange
// broadcasts the next NbrUpdate.
func (th *TwoHop) OnSlotStart(int64) {
	b := th.b
	now := b.cfg.Engine.Now()
	if now.Sub(th.lastUpdate) < th.opts.UpdatePeriod {
		return
	}
	if b.role != RoleIdle || b.Held() || b.cfg.Modem.Transmitting() {
		return
	}
	if b.ledger.QuietUntilSlot() > b.cfg.Slots.SlotAt(now) {
		return
	}
	upd := b.NewFrame(packet.KindNbrUpdate, packet.Broadcast)
	upd.Neighbors = th.rotatingSnapshot()
	if err := b.SendNow(upd); err != nil {
		return
	}
	th.lastUpdate = now
	b.counters.MaintenanceBits += uint64(upd.Bits())
}

// rotatingSnapshot returns up to MaintenanceEntries entries from the
// table, starting at a cursor that advances each broadcast so the whole
// two-hop state circulates over successive updates without monster
// frames.
func (th *TwoHop) rotatingSnapshot() []packet.NeighborInfo {
	max := th.opts.MaintenanceEntries
	full := th.b.table.Snapshot(-1)
	if len(full) == 0 {
		return nil
	}
	if len(full) <= max {
		return full
	}
	out := make([]packet.NeighborInfo, 0, max)
	for i := 0; i < max; i++ {
		out = append(out, full[(th.rotCursor+i)%len(full)])
	}
	th.rotCursor = (th.rotCursor + max) % len(full)
	return out
}
