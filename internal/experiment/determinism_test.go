package experiment

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"math"
	"path/filepath"
	"testing"
	"time"

	"ewmac/internal/fault"
	"ewmac/internal/mac"
	"ewmac/internal/packet"
	"ewmac/internal/sim"
)

// traceHash runs cfg once and folds every scheduled frame delivery
// (source, destination, kind, sequence, timestamp, propagation delay,
// received level, wire size) plus the final metric summary into one
// FNV-64a digest. Two runs producing the same hash executed the same
// transmissions at the same instants with the same outcomes — the
// bit-identical-trace oracle every hot-path optimization is held to.
func traceHash(t *testing.T, cfg Config) uint64 {
	t.Helper()
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		_, _ = h.Write(buf[:])
	}
	cfg.Instrument = &Instrumentation{
		Trace: func(src, dst packet.NodeID, f *packet.Frame, delay time.Duration, levelDB float64) {
			w64(uint64(src)<<32 | uint64(dst)<<16 | uint64(f.Kind))
			w64(uint64(f.Seq))
			w64(uint64(f.Timestamp))
			w64(uint64(delay))
			w64(math.Float64bits(levelDB))
			w64(uint64(f.Bits()))
		},
		RxTap: func(now sim.Time, node packet.NodeID, f *packet.Frame) {
			w64(uint64(now))
			w64(uint64(node)<<16 | uint64(f.Kind))
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("traceHash run: %v", err)
	}
	s := res.Summary
	w64(math.Float64bits(s.ThroughputKbps))
	w64(math.Float64bits(s.DeliveryRatio))
	w64(math.Float64bits(s.MeanPowerMW))
	w64(uint64(s.ExecutionTime))
	w64(s.OverheadBits)
	w64(s.MAC.DeliveredPackets)
	w64(s.PHY.Collisions)
	return h.Sum64()
}

// goldenStaticConfig is the fixed no-fault static-topology scenario
// whose trace hash is pinned across commits.
func goldenStaticConfig(p Protocol) Config {
	cfg := Default(p)
	cfg.Nodes = 24
	cfg.Sinks = 2
	cfg.MobileFraction = 0
	cfg.SimTime = 60 * time.Second
	cfg.Seed = 7
	return cfg
}

// goldenMobileConfig exercises the mobility path (geometry cache
// invalidation every step) in the same pinned way.
func goldenMobileConfig() Config {
	cfg := Default(ProtocolEWMAC)
	cfg.Nodes = 20
	cfg.Sinks = 2
	cfg.SimTime = 45 * time.Second
	cfg.MobileFraction = 0.5
	cfg.CurrentMS = 1.5
	cfg.Seed = 11
	return cfg
}

// goldenStaticHashes pins the exact event trace of the no-fault
// static-topology scenario per protocol, captured before the hot-path
// overhaul (pooled scheduler, geometry cache, copy-on-write frames).
// A mismatch means an "optimization" changed simulation behaviour.
// S-ALOHA, the extension baseline, is pinned alongside the paper's four.
var goldenStaticHashes = map[Protocol]uint64{
	ProtocolSFAMA:  0xc55ae16771c274d3,
	ProtocolROPA:   0x8d7f2372bd7587a5,
	ProtocolCSMAC:  0xb1dc385203bfdff1,
	ProtocolEWMAC:  0x2c20421d03385755,
	ProtocolSALOHA: 0x1e8c851e3904b9bb,
}

// goldenMobileHash pins the mobile-topology trace the same way; it
// exercises the geometry-cache invalidation path every mobility step.
const goldenMobileHash = 0xd6efd49bfc39cf47

// TestGoldenTraceHash holds every optimized run to the trace recorded
// by the reference implementation.
func TestGoldenTraceHash(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for p, want := range goldenStaticHashes {
		p, want := p, want
		t.Run(string(p), func(t *testing.T) {
			t.Parallel()
			if got := traceHash(t, goldenStaticConfig(p)); got != want {
				t.Errorf("static %s trace hash = %#016x, want pinned %#016x", p, got, want)
			}
		})
	}
	t.Run("mobile-ewmac", func(t *testing.T) {
		t.Parallel()
		if got := traceHash(t, goldenMobileConfig()); got != uint64(goldenMobileHash) {
			t.Errorf("mobile trace hash = %#016x, want pinned %#016x", got, uint64(goldenMobileHash))
		}
	})
}

// TestTraceHashReproducible: the same seed must replay bit-identically.
func TestTraceHashReproducible(t *testing.T) {
	cfg := goldenStaticConfig(ProtocolEWMAC)
	cfg.SimTime = 30 * time.Second
	if a, b := traceHash(t, cfg), traceHash(t, cfg); a != b {
		t.Errorf("two runs of one seed diverged: %#016x vs %#016x", a, b)
	}
}

// TestGeometryCacheBitIdentical: force-disabling the geometry cache
// must not change a single event, static or mobile.
func TestGeometryCacheBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	static := goldenStaticConfig(ProtocolEWMAC)
	static.SimTime = 40 * time.Second
	mobile := goldenMobileConfig()
	mobile.SimTime = 30 * time.Second
	for name, cfg := range map[string]Config{"static": static, "mobile": mobile} {
		on := cfg
		off := cfg
		off.DisableGeometryCache = true
		if a, b := traceHash(t, on), traceHash(t, off); a != b {
			t.Errorf("%s: cache-on hash %#016x != cache-off hash %#016x", name, a, b)
		}
	}
}

// TestGoldenHashPrint logs the current hashes; used to (re)pin the
// golden constants when scenarios legitimately change.
func TestGoldenHashPrint(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, p := range append([]Protocol{ProtocolSALOHA}, Protocols...) {
		t.Logf("static %-6s %#016x", p, traceHash(t, goldenStaticConfig(p)))
	}
	t.Logf("mobile ewmac  %#016x", traceHash(t, goldenMobileConfig()))
}

// goldenOverloadConfig layers the repository's chaos fault scenario
// over a saturated, fully managed queue: deadline drops with a TTL, an
// admission gate on a queue small enough that it sheds, and a retry
// budget. Together they drive every station path the MACs share —
// suspect/dead/resurrect liveness, dead-peer purges, deadline expiry,
// load shedding and retry deferral — which the fault-free goldens
// never reach.
func goldenOverloadConfig(t *testing.T, p Protocol) Config {
	t.Helper()
	sc, err := fault.Load(filepath.Join("..", "..", "examples", "faults", "chaos.json"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default(p)
	cfg.Nodes = 20
	cfg.SimTime = 300 * time.Second
	cfg.OfferedLoadKbps = 3
	cfg.QueueMax = 8
	cfg.Seed = 4
	cfg.Faults = sc
	cfg.Overload = mac.OverloadConfig{
		Policy:      mac.DropDeadline,
		PacketTTL:   30 * time.Second,
		HighWater:   0.5,
		RetryBudget: mac.RetryBudgetConfig{Burst: 2},
	}
	return cfg
}

// goldenOverloadHashes pins the FNV-64a digest of the full JSONL trace
// of goldenOverloadConfig per protocol. The static goldens hash frames
// only; these digests also cover every emitted event field, including
// the extra-exchange lifecycle of EW-MAC, ROPA and CS-MAC.
var goldenOverloadHashes = map[Protocol]uint64{
	ProtocolSALOHA: 0xd568ba05cea0cf6b,
	ProtocolSFAMA:  0xe6a2d5c580550e59,
	ProtocolEWMAC:  0xd423049241ada644,
	ProtocolROPA:   0x50d2cdd00302185f,
	ProtocolCSMAC:  0x417d6ffa08f53c9e,
}

// overloadTags lists, per protocol, the event tags goldenOverloadConfig
// must reach. Every MAC shares the station paths; EW-MAC never declares
// a peer dead in this scenario, and the protocols with an extra path
// must still walk its lifecycle.
func overloadTags(p Protocol) []string {
	tags := []string{
		"mac.recovery/suspect",
		"mac.drop/deadline-expired", "mac.drop/load-shed",
		"mac.overload/shed-begin", "mac.overload/shed-end", "mac.overload/retry-defer",
	}
	if p != ProtocolEWMAC {
		tags = append(tags, "mac.recovery/dead", "mac.recovery/resurrect", "mac.drop/dead-peer")
	}
	switch p {
	case ProtocolEWMAC:
		tags = append(tags, "mac.extra/request", "mac.extra/complete", "mac.extra/grant", "mac.extra/abort")
	case ProtocolROPA:
		tags = append(tags, "mac.extra/request", "mac.extra/complete", "mac.extra/grant")
	case ProtocolCSMAC:
		tags = append(tags, "mac.extra/request", "mac.extra/complete", "mac.extra/abort")
	}
	return tags
}

// overloadTrace runs cfg with the JSONL trace on and returns its digest
// plus a count of every event tag in it.
func overloadTrace(t *testing.T, cfg Config) (uint64, map[string]int) {
	t.Helper()
	var buf bytes.Buffer
	cfg.Observe = &Observe{Trace: &buf}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	_, _ = h.Write(buf.Bytes())
	tags := make(map[string]int)
	for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
		var ev struct {
			Event  string `json:"event"`
			Action string `json:"action"`
			Reason string `json:"reason"`
		}
		if len(line) == 0 {
			continue
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("trace line %q: %v", line, err)
		}
		tags[ev.Event]++
		if ev.Action != "" {
			tags[ev.Event+"/"+ev.Action]++
		}
		if ev.Reason != "" {
			tags[ev.Event+"/"+ev.Reason]++
		}
	}
	return h.Sum64(), tags
}

// TestGoldenOverloadTraceHash pins the byte-exact trace of the
// faults+overload scenario and checks the scenario still reaches every
// shared station path, so the pin cannot silently go vacuous.
func TestGoldenOverloadTraceHash(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for p, want := range goldenOverloadHashes {
		p, want := p, want
		t.Run(string(p), func(t *testing.T) {
			t.Parallel()
			got, tags := overloadTrace(t, goldenOverloadConfig(t, p))
			for _, tag := range overloadTags(p) {
				if tags[tag] == 0 {
					t.Errorf("scenario no longer reaches %s", tag)
				}
			}
			if got != want {
				t.Errorf("faults+overload %s trace hash = %#016x, want pinned %#016x", p, got, want)
			}
		})
	}
}
