package obs

import (
	"math"
	"time"

	"ewmac/internal/packet"
	"ewmac/internal/sim"
)

// This file is the Collector's resilience fold: how many fault
// episodes the network absorbed, how long each afflicted node took to
// make protocol progress again after its fault cleared, how delivery
// held up inside degraded windows, and the merged windows during which
// an admission gate was shedding. Collector.Resilience reduces it,
// together with the Collector's recovery, drop, overload and violation
// tallies, to a ResilienceStats.

// pairedFault reports whether kind's injector emits a matching clear
// for every inject, forming an episode with a recovery to measure.
// Delay shifts and interference bursts are inject-only (the "fault" is
// a permanent world change or an instantaneous burst), so they
// contribute no episodes and no degraded windows.
func pairedFault(kind string) bool {
	switch kind {
	case "churn", "outage", "sync-loss":
		return true
	}
	return false
}

type episodeKey struct {
	node packet.NodeID
	kind string
}

// awaitingRecovery is one cleared fault episode whose node has not yet
// made protocol progress.
type awaitingRecovery struct {
	node    packet.NodeID
	clearAt sim.Time
}

// episodes is the paired-fault state. The Collector allocates it on
// the first paired fault event, so a fault-free run pays one nil check
// per delivery and contention event.
type episodes struct {
	active        map[episodeKey]struct{}
	awaiting      []awaitingRecovery
	ttrs          []time.Duration
	cleared       int
	degradedStart sim.Time
	degraded      time.Duration
	degradedDeliv uint64
}

// fault opens or closes an episode. A degraded window spans the time
// at least one paired fault is active anywhere in the network.
func (e *episodes) fault(at sim.Time, ev *Fault) {
	key := episodeKey{ev.Node, ev.Kind}
	_, open := e.active[key]
	switch {
	case ev.Action == FaultInject && !open:
		if len(e.active) == 0 {
			e.degradedStart = at
		}
		e.active[key] = struct{}{}
	case ev.Action == FaultClear && open:
		delete(e.active, key)
		e.cleared++
		e.awaiting = append(e.awaiting, awaitingRecovery{node: ev.Node, clearAt: at})
		if len(e.active) == 0 {
			e.degraded += at.Sub(e.degradedStart)
		}
	}
}

// delivery counts a delivery inside a degraded window and treats it as
// progress by the delivering node.
func (e *episodes) delivery(node packet.NodeID, at sim.Time) {
	if len(e.active) > 0 {
		e.degradedDeliv++
	}
	e.progress(node, at)
}

// progress closes every awaiting episode of node that cleared at or
// before this instant, recording its time-to-recover.
func (e *episodes) progress(node packet.NodeID, at sim.Time) {
	if len(e.awaiting) == 0 {
		return
	}
	kept := e.awaiting[:0]
	for _, p := range e.awaiting {
		if p.node == node && !at.Before(p.clearAt) {
			e.ttrs = append(e.ttrs, at.Sub(p.clearAt))
			continue
		}
		kept = append(kept, p)
	}
	e.awaiting = kept
}

// shedWindows merges the intervals during which at least one node's
// admission gate is closed.
type shedWindows struct {
	nodes map[packet.NodeID]struct{}
	start sim.Time
	total time.Duration
	count int
}

func (s *shedWindows) record(at sim.Time, ev *Overload) {
	_, open := s.nodes[ev.Node]
	switch {
	case ev.Action == OverloadShedBegin && !open:
		if s.nodes == nil {
			s.nodes = make(map[packet.NodeID]struct{})
		}
		if len(s.nodes) == 0 {
			s.start = at
			s.count++
		}
		s.nodes[ev.Node] = struct{}{}
	case ev.Action == OverloadShedEnd && open:
		delete(s.nodes, ev.Node)
		if len(s.nodes) == 0 {
			s.total += at.Sub(s.start)
		}
	}
}

// Resilience reduces the collected events to ResilienceStats. end is
// the run's final instant; stranded is the count of packets still
// queued to dead peers across all nodes at that instant.
func (c *Collector) Resilience(end sim.Time, stranded int) *ResilienceStats {
	ep := c.ep
	if ep == nil {
		ep = &episodes{}
	}
	degraded := ep.degraded
	if len(ep.active) > 0 && end.After(ep.degradedStart) {
		degraded += end.Sub(ep.degradedStart)
	}
	clean := end.Duration() - degraded
	if clean < 0 {
		clean = 0
	}
	overload := c.shed.total
	if len(c.shed.nodes) > 0 && end.After(c.shed.start) {
		overload += end.Sub(c.shed.start)
	}
	var violations uint64
	for _, n := range c.violations {
		violations += n
	}
	cleanDeliv := c.delivered - ep.degradedDeliv
	st := &ResilienceStats{
		Episodes:           ep.cleared,
		Recovered:          len(ep.ttrs),
		Unrecovered:        len(ep.awaiting),
		DegradedS:          degraded.Seconds(),
		CleanS:             clean.Seconds(),
		DegradedDeliveries: ep.degradedDeliv,
		CleanDeliveries:    cleanDeliv,
		StrandedPackets:    stranded,
		SuspectMarks:       c.recovery[RecoverySuspect],
		DeadMarks:          c.recovery[RecoveryDead],
		Resurrections:      c.recovery[RecoveryResurrect],
		WatchdogResets:     c.recovery[RecoveryWatchdog],
		OverloadEpisodes:   c.shed.count,
		OverloadS:          overload.Seconds(),
		ShedPackets:        c.drops[DropShed],
		RetryDeferrals:     c.overload[OverloadRetryDefer],
		OracleViolations:   violations,
	}
	if len(ep.ttrs) > 0 {
		var sum, max time.Duration
		for _, d := range ep.ttrs {
			sum += d
			if d > max {
				max = d
			}
		}
		st.MeanTimeToRecoverS = (sum / time.Duration(len(ep.ttrs))).Seconds()
		st.MaxTimeToRecoverS = max.Seconds()
	}
	// Degraded delivery ratio: the delivery *rate* inside degraded
	// windows normalized by the clean-window rate. 1 means faults cost
	// nothing; 0 means total collapse. With no degraded time (or no
	// clean baseline to compare against) the ratio is reported as 1.
	st.DegradedDeliveryRatio = 1
	if st.DegradedS > 0 && st.CleanS > 0 {
		cleanRate := float64(cleanDeliv) / st.CleanS
		degRate := float64(ep.degradedDeliv) / st.DegradedS
		if cleanRate > 0 {
			st.DegradedDeliveryRatio = math.Min(degRate/cleanRate, 1)
		}
	}
	return st
}
