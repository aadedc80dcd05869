package main

import (
	"fmt"
	"time"

	"ewmac"
)

// workload is a named list of simulation runs executed one after the
// other. configs builds fresh Configs on every call, because an
// observed run's Config carries its own output writers.
type workload struct {
	name    string
	configs func(seed int64) []ewmac.Config
	// observed reports whether the runs carry the trace, spans, report
	// and verify consumers, whose byte counts and conformance stats the
	// equivalence gate then compares too.
	observed bool
}

var workloads = []workload{
	{name: "paper-sweep", configs: paperSweep},
	{name: "scale-500", configs: scale500},
	{name: "verify-200", configs: verify200, observed: true},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// paperSweep is Table 2 (60 sensors + 4 sinks, 1 km cube, half the
// sensors drifting at 0.3 m/s, 2048-bit data, 300 s) for the paper's
// four protocols at three Figure-6 loads and three consecutive seeds.
func paperSweep(seed int64) []ewmac.Config {
	var out []ewmac.Config
	for _, p := range ewmac.Protocols {
		for _, load := range []float64{0.3, 0.6, 1.0} {
			for k := int64(0); k < 3; k++ {
				cfg := ewmac.DefaultConfig(p)
				cfg.OfferedLoadKbps = load
				cfg.Seed = seed + k
				out = append(out, cfg)
			}
		}
	}
	return out
}

// scale500 is ROADMAP's scale target: 500 sensors + 4 sinks in a 2 km
// cube with Table-2 mobility, EW-MAC at 2 kbps for 600 s.
func scale500(seed int64) []ewmac.Config {
	cfg := ewmac.DefaultConfig(ewmac.EWMAC)
	cfg.Nodes = 500
	cfg.RegionSide = 2000
	cfg.OfferedLoadKbps = 2
	cfg.SimTime = 600 * time.Second
	cfg.Seed = seed
	return []ewmac.Config{cfg}
}

// verify200 is 200 static sensors + 4 sinks in a 2 km cube, EW-MAC at
// 2 kbps for 1200 s, with the conformance oracle, the JSONL trace, the
// span assembler and the report collector all on. Trace and spans go to
// byte counters.
func verify200(seed int64) []ewmac.Config {
	cfg := ewmac.DefaultConfig(ewmac.EWMAC)
	cfg.Nodes = 200
	cfg.RegionSide = 2000
	cfg.MobileFraction = 0
	cfg.OfferedLoadKbps = 2
	cfg.SimTime = 1200 * time.Second
	cfg.Seed = seed
	cfg.Observe = &ewmac.Observe{
		Trace:  &byteCounter{},
		Spans:  &byteCounter{},
		Report: true,
		Verify: true,
	}
	return []ewmac.Config{cfg}
}

// streamBytes reports the trace and span byte counts of an observed
// Config; valid once its run has finished.
func streamBytes(cfg ewmac.Config) (trace, spans int64) {
	if o := cfg.Observe; o != nil {
		if c, ok := o.Trace.(*byteCounter); ok {
			trace = c.n
		}
		if c, ok := o.Spans.(*byteCounter); ok {
			spans = c.n
		}
	}
	return trace, spans
}
