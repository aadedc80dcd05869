package experiment

import (
	"encoding/json"
	"hash/fnv"
	"testing"

	"ewmac/internal/mac"
)

// goldenResilienceHashes pins the FNV-64a digest of the JSON-marshalled
// ResilienceStats of goldenOverloadConfig (with the oracle armed) per
// protocol, so every recovery metric — episodes, time-to-recover,
// degraded and overload windows, and the tallies — stays byte-exact.
var goldenResilienceHashes = map[Protocol]uint64{
	ProtocolSALOHA: 0xd6ce75c8ac147d7f,
	ProtocolSFAMA:  0x29b3c76589fb4254,
	ProtocolEWMAC:  0x8f5d2501fb0dc9d9,
	ProtocolROPA:   0x3f1394157f57b0b9,
	ProtocolCSMAC:  0x8c2a44424f99f5a5,
}

// TestResilienceTalliesMatchCounters holds the resilience summary's
// event-stream tallies to the MAC counters that count the same things
// at their source, and the oracle tally to the verifier's own count,
// under chaos faults with every overload mechanism armed.
func TestResilienceTalliesMatchCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for p, want := range goldenResilienceHashes {
		p, want := p, want
		t.Run(string(p), func(t *testing.T) {
			t.Parallel()
			cfg := goldenOverloadConfig(t, p)
			cfg.Observe = &Observe{Verify: true}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r := res.Resilience
			if r == nil {
				t.Fatal("no resilience stats under faults and overload")
			}
			var m mac.Counters
			for _, n := range res.PerNode {
				m = m.Add(n.MAC)
			}
			for _, c := range []struct {
				name      string
				got, want uint64
			}{
				{"SuspectMarks", r.SuspectMarks, m.SuspectMarks},
				{"DeadMarks", r.DeadMarks, m.DeadMarks},
				{"Resurrections", r.Resurrections, m.Resurrections},
				{"WatchdogResets", r.WatchdogResets, m.WatchdogResets},
				{"ShedPackets", r.ShedPackets, m.DroppedShed},
				{"RetryDeferrals", r.RetryDeferrals, m.RetryDeferrals},
				{"OracleViolations", r.OracleViolations, res.Conformance.Violations},
			} {
				if c.got != c.want {
					t.Errorf("%s = %d, source count %d", c.name, c.got, c.want)
				}
			}
			if r.SuspectMarks == 0 || r.ShedPackets == 0 || r.RetryDeferrals == 0 {
				t.Errorf("scenario no longer exercises the tallies: %+v", r)
			}
			b, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			_, _ = h.Write(b)
			if got := h.Sum64(); got != want {
				t.Errorf("%s resilience stats hash = %#016x, want pinned %#016x\n%s", p, got, want, b)
			}
		})
	}
}
