package mac

import (
	"time"

	"ewmac/internal/packet"
	"ewmac/internal/sim"
)

// NeighborTable maintains measured one-hop propagation delays, per the
// paper's §4.3: every frame carries its sender's transmission
// timestamp, and a receiver derives the pairwise delay as
// (arrival end − timestamp − transmission time). Entries never age
// out; callers that distrust old estimates consult Age and Suspect.
type NeighborTable struct {
	// entries is indexed by NodeID — IDs are dense small integers — and
	// grows on demand; a slot is in use only when its known flag is set.
	entries []tableEntry
	// used counts the slots in use.
	used int
}

type tableEntry struct {
	delay time.Duration
	heard sim.Time
	// suspect marks an entry whose peer produced a physically
	// impossible delay measurement since the last good refresh: every
	// delay learned from that peer's timestamps — including this one —
	// is then untrustworthy until a plausible measurement clears it.
	suspect bool
	// known marks the slot as in use.
	known bool
}

// NewNeighborTable returns an empty table.
func NewNeighborTable() *NeighborTable { return &NeighborTable{} }

// lookup returns id's slot, or nil if id has no entry.
func (t *NeighborTable) lookup(id packet.NodeID) *tableEntry {
	if int(id) < len(t.entries) && t.entries[id].known {
		return &t.entries[id]
	}
	return nil
}

// set stores a fresh (not suspect) entry for id, growing the table to
// reach it.
func (t *NeighborTable) set(id packet.NodeID, delay time.Duration, heard sim.Time) {
	if n := int(id) + 1; n > len(t.entries) {
		t.entries = append(t.entries, make([]tableEntry, n-len(t.entries))...)
	}
	e := &t.entries[id]
	if !e.known {
		t.used++
	}
	*e = tableEntry{delay: delay, heard: heard, known: true}
}

// Observe updates the sender's delay estimate from a received frame.
// arrivalEnd is the instant reception completed; txDur the frame's
// on-air duration at the shared bit rate.
func (t *NeighborTable) Observe(f *packet.Frame, arrivalEnd sim.Time, txDur time.Duration) {
	delay := arrivalEnd.Duration() - f.Timestamp - txDur
	if delay < 0 {
		// Clock skew or a bogus timestamp: distrust, but keep the
		// neighbor known with a zero-floor delay.
		delay = 0
	}
	t.set(f.Src, delay, arrivalEnd)
}

// ObservePair folds in piggybacked third-party delay info (e.g. a CTS
// announcing τ between the negotiating pair) — the receiver learns of
// the pair's delay without having measured it. These entries inform
// scheduling around overheard exchanges, not transmissions to that
// node, so they are stored only if no direct measurement exists.
func (t *NeighborTable) ObservePair(id packet.NodeID, delay time.Duration, now sim.Time) {
	if id == packet.Nobody || id == packet.Broadcast {
		return
	}
	if t.lookup(id) != nil {
		return
	}
	t.set(id, delay, now)
}

// Delay returns the current estimate for a neighbor and whether one
// exists.
func (t *NeighborTable) Delay(id packet.NodeID) (time.Duration, bool) {
	e := t.lookup(id)
	if e == nil {
		return 0, false
	}
	return e.delay, true
}

// Age returns how long ago the estimate for a neighbor was refreshed,
// and whether an estimate exists. Staleness-aware admission rules use
// it to distrust old entries.
func (t *NeighborTable) Age(id packet.NodeID, now sim.Time) (time.Duration, bool) {
	e := t.lookup(id)
	if e == nil {
		return 0, false
	}
	return now.Sub(e.heard), true
}

// MarkSuspect flags an existing entry as untrustworthy (its peer just
// produced an impossible delay measurement). A later plausible
// Observe clears the flag.
func (t *NeighborTable) MarkSuspect(id packet.NodeID) {
	if e := t.lookup(id); e != nil {
		e.suspect = true
	}
}

// Suspect reports whether the entry exists and is flagged suspect.
func (t *NeighborTable) Suspect(id packet.NodeID) bool {
	e := t.lookup(id)
	return e != nil && e.suspect
}

// Clear drops every entry (node cold-start after a crash). The slots
// are kept for reuse; set zeroes any it grows back into.
func (t *NeighborTable) Clear() {
	t.entries = t.entries[:0]
	t.used = 0
}

// Known returns the IDs with estimates in ascending order.
func (t *NeighborTable) Known() []packet.NodeID {
	out := make([]packet.NodeID, 0, t.used)
	for i := range t.entries {
		if t.entries[i].known {
			out = append(out, packet.NodeID(i))
		}
	}
	return out
}

// Len reports the number of entries.
func (t *NeighborTable) Len() int { return t.used }

// Snapshot returns up to max entries as piggybackable
// NeighborInfo, sorted by ID. CS-MAC and ROPA use this to distribute
// two-hop state; EW-MAC only ever piggybacks the single pair under
// negotiation.
func (t *NeighborTable) Snapshot(max int) []packet.NeighborInfo {
	ids := t.Known()
	if max >= 0 && len(ids) > max {
		ids = ids[:max]
	}
	out := make([]packet.NeighborInfo, 0, len(ids))
	for _, id := range ids {
		d, _ := t.Delay(id)
		out = append(out, packet.NeighborInfo{ID: id, Delay: d})
	}
	return out
}
