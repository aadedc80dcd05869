package obs

import (
	"math"
	"testing"
	"time"

	"ewmac/internal/sim"
)

func at(d time.Duration) sim.Time { return sim.At(d) }

// TestResilienceEpisodes walks a synthetic fault timeline through the
// Collector: one churn episode on node 3, recovered by a delivery 5s
// after the clear, with deliveries on both sides of the degraded
// window.
func TestResilienceEpisodes(t *testing.T) {
	c := NewCollector()

	c.Record(at(5*time.Second), &Delivery{Node: 3}) // clean
	c.Record(at(10*time.Second), &Fault{Node: 3, Kind: "churn", Action: FaultInject})
	c.Record(at(15*time.Second), &Delivery{Node: 2}) // degraded
	c.Record(at(20*time.Second), &Fault{Node: 3, Kind: "churn", Action: FaultClear})
	c.Record(at(25*time.Second), &Delivery{Node: 3}) // recovery signal
	c.Record(at(30*time.Second), &Delivery{Node: 3}) // clean

	st := c.Resilience(at(60*time.Second), 2)
	if st.Episodes != 1 || st.Recovered != 1 || st.Unrecovered != 0 {
		t.Fatalf("episodes=%d recovered=%d unrecovered=%d, want 1/1/0",
			st.Episodes, st.Recovered, st.Unrecovered)
	}
	if st.MeanTimeToRecoverS != 5 || st.MaxTimeToRecoverS != 5 {
		t.Fatalf("ttr mean=%v max=%v, want 5/5", st.MeanTimeToRecoverS, st.MaxTimeToRecoverS)
	}
	if st.DegradedS != 10 || st.CleanS != 50 {
		t.Fatalf("degraded=%v clean=%v, want 10/50", st.DegradedS, st.CleanS)
	}
	if st.DegradedDeliveries != 1 || st.CleanDeliveries != 3 {
		t.Fatalf("deliveries degraded=%d clean=%d, want 1/3", st.DegradedDeliveries, st.CleanDeliveries)
	}
	// Degraded rate 1/10 vs clean rate 3/50: ratio 5/3 clamps to 1.
	if st.DegradedDeliveryRatio != 1 {
		t.Fatalf("degraded delivery ratio %v, want 1 (clamped)", st.DegradedDeliveryRatio)
	}
	if st.StrandedPackets != 2 {
		t.Fatalf("stranded=%d, want 2", st.StrandedPackets)
	}
}

// TestResilienceContentionProgress verifies that a won contention round
// counts as recovery for a relay node that never receives deliveries,
// and that a node with no progress stays unrecovered.
func TestResilienceContentionProgress(t *testing.T) {
	c := NewCollector()
	c.Record(at(10*time.Second), &Fault{Node: 1, Kind: "outage", Action: FaultInject})
	c.Record(at(12*time.Second), &Fault{Node: 2, Kind: "outage", Action: FaultInject})
	c.Record(at(20*time.Second), &Fault{Node: 1, Kind: "outage", Action: FaultClear})
	c.Record(at(22*time.Second), &Fault{Node: 2, Kind: "outage", Action: FaultClear})
	// Node 1 wins a round 3s after its clear; node 2 only loses rounds.
	c.Record(at(23*time.Second), &Contention{Node: 1, Outcome: ContentionWon})
	c.Record(at(24*time.Second), &Contention{Node: 2, Outcome: "lost"})

	st := c.Resilience(at(30*time.Second), 0)
	if st.Episodes != 2 || st.Recovered != 1 || st.Unrecovered != 1 {
		t.Fatalf("episodes=%d recovered=%d unrecovered=%d, want 2/1/1",
			st.Episodes, st.Recovered, st.Unrecovered)
	}
	if st.MeanTimeToRecoverS != 3 {
		t.Fatalf("mean ttr %v, want 3", st.MeanTimeToRecoverS)
	}
}

// TestResilienceOverlappingWindows: two overlapping episodes form one
// degraded window spanning first inject to last clear.
func TestResilienceOverlappingWindows(t *testing.T) {
	c := NewCollector()
	c.Record(at(10*time.Second), &Fault{Node: 1, Kind: "churn", Action: FaultInject})
	c.Record(at(15*time.Second), &Fault{Node: 2, Kind: "outage", Action: FaultInject})
	c.Record(at(20*time.Second), &Fault{Node: 1, Kind: "churn", Action: FaultClear})
	c.Record(at(30*time.Second), &Fault{Node: 2, Kind: "outage", Action: FaultClear})
	st := c.Resilience(at(60*time.Second), 0)
	if st.DegradedS != 20 {
		t.Fatalf("degraded=%v, want 20 (one merged window)", st.DegradedS)
	}
	if st.Episodes != 2 {
		t.Fatalf("episodes=%d, want 2", st.Episodes)
	}
}

// TestResilienceUnpairedKindsIgnored: delay-shift and interference are
// inject-only world changes; they must not open degraded windows or
// leak unrecovered episodes.
func TestResilienceUnpairedKindsIgnored(t *testing.T) {
	c := NewCollector()
	c.Record(at(10*time.Second), &Fault{Node: 1, Kind: "delay-shift", Action: FaultInject})
	c.Record(at(12*time.Second), &Fault{Node: 2, Kind: "interference", Action: FaultInject})
	st := c.Resilience(at(60*time.Second), 0)
	if st.Episodes != 0 || st.Unrecovered != 0 || st.DegradedS != 0 {
		t.Fatalf("unpaired kinds leaked: %+v", st)
	}
}

// TestResilienceOpenWindowExtendsToEnd: a fault still active at run end
// degrades the remainder of the run and counts no episode.
func TestResilienceOpenWindowExtendsToEnd(t *testing.T) {
	c := NewCollector()
	c.Record(at(40*time.Second), &Fault{Node: 1, Kind: "outage", Action: FaultInject})
	st := c.Resilience(at(60*time.Second), 0)
	if st.DegradedS != 20 || st.CleanS != 40 {
		t.Fatalf("degraded=%v clean=%v, want 20/40", st.DegradedS, st.CleanS)
	}
	if st.Episodes != 0 {
		t.Fatalf("episodes=%d, want 0 (never cleared)", st.Episodes)
	}
}

// TestResilienceRecoveryCounters tallies the four recovery actions.
func TestResilienceRecoveryCounters(t *testing.T) {
	c := NewCollector()
	c.Record(at(time.Second), &Recovery{Node: 1, Peer: 2, Action: RecoverySuspect})
	c.Record(at(2*time.Second), &Recovery{Node: 1, Peer: 2, Action: RecoveryDead})
	c.Record(at(3*time.Second), &Recovery{Node: 1, Peer: 2, Action: RecoveryResurrect})
	c.Record(at(4*time.Second), &Recovery{Node: 1, Action: RecoveryWatchdog})
	c.Record(at(5*time.Second), &Recovery{Node: 1, Action: RecoverySuspect})
	st := c.Resilience(at(10*time.Second), 0)
	if st.SuspectMarks != 2 || st.DeadMarks != 1 || st.Resurrections != 1 || st.WatchdogResets != 1 {
		t.Fatalf("recovery counters %+v, want suspects=2 deads=1 resurrections=1 watchdogs=1", st)
	}
}

// TestResilienceDegradedRatio: an unclamped ratio comes out as the
// degraded delivery rate over the clean rate.
func TestResilienceDegradedRatio(t *testing.T) {
	c := NewCollector()
	// Clean: 0..30s with 6 deliveries (rate 0.2/s).
	for i := 0; i < 6; i++ {
		c.Record(at(time.Duration(i+1)*time.Second), &Delivery{Node: 1})
	}
	c.Record(at(30*time.Second), &Fault{Node: 1, Kind: "outage", Action: FaultInject})
	// Degraded: 30..60s with 3 deliveries (rate 0.1/s).
	for i := 0; i < 3; i++ {
		c.Record(at(time.Duration(35+i)*time.Second), &Delivery{Node: 2})
	}
	st := c.Resilience(at(60*time.Second), 0)
	if math.Abs(st.DegradedDeliveryRatio-0.5) > 1e-9 {
		t.Fatalf("degraded delivery ratio %v, want 0.5", st.DegradedDeliveryRatio)
	}
}
