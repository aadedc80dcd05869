// Command layerbench is the simulator's benchmark of record. It runs one
// named workload through the public entry point ewmac.Run and prints the
// end-to-end metrics, or, with -trace 1, assembles the same simulations
// from the layers' public constructors with a timing decorator on every
// layer boundary and prints per-layer self times and exact counts. Every
// run is checked against a second, independently assembled run of the
// same Config; a mismatch counts the run as failed.
//
//	go build -o layerbench . && ./layerbench -workload scale-500 -seed 1 -seconds 25 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// A human-readable table goes to standard error. See README.md for the
// workloads, the metric definitions and the layer each metric belongs to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"time"

	"ewmac"
	"ewmac/internal/metrics"
	"ewmac/internal/oracle"
	"ewmac/internal/sim"
)

// setupsPerRep is how many times a run sets the workload up, to measure
// setup_s, before each timed repetition; the median is reported.
const setupsPerRep = 3

// minReps is the fewest timed repetitions (trace 0) or traced/untraced
// pairs (trace 1) a run makes, even past its time budget.
const minReps = 2

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: paper-sweep, scale-500 or verify-200")
	seed := flag.Int64("seed", 1, "seed of the workload's inputs")
	seconds := flag.Int("seconds", 25, "seconds to measure for")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "layerbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	b := &bench{w: w, seed: *seed, deadline: time.Now().Add(time.Duration(*seconds) * time.Second)}
	var ms map[string]metric
	if *trace == 1 {
		ms, err = b.traced()
	} else {
		ms, err = b.untraced()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "layerbench: %v\n", err)
		return 1
	}
	printTable(w.name, ms)
	out, err := json.Marshal(report{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: ms})
	if err != nil {
		fmt.Fprintf(os.Stderr, "layerbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// outcome is what the equivalence gate compares between two runs of one
// Config.
type outcome struct {
	Summary     metrics.Summary
	Conformance *oracle.Stats
	TraceBytes  int64
	SpanBytes   int64
}

func runPublic(cfg ewmac.Config) (outcome, error) {
	res, err := ewmac.Run(cfg)
	if err != nil {
		return outcome{}, err
	}
	o := outcome{Summary: res.Summary, Conformance: res.Conformance}
	o.TraceBytes, o.SpanBytes = streamBytes(cfg)
	return o, nil
}

// runStack builds the stack, runs it through the Hello warm-up and then
// to the end, and reduces it. t may be nil.
func runStack(cfg ewmac.Config, t *tracer) (*stack, outcome, error) {
	s, err := buildStack(cfg, t)
	if err != nil {
		return nil, outcome{}, err
	}
	var mark time.Duration
	if t != nil {
		mark = t.total[layerEngine]
	}
	t.do(layerEngine, func() { s.eng.RunUntil(sim.At(cfg.Warmup)) })
	if t != nil {
		t.hello += t.total[layerEngine] - mark
	}
	t.do(layerEngine, func() { s.eng.RunUntil(sim.At(cfg.SimTime)) })
	o, err := s.finish(t)
	if err != nil {
		_ = s.close(nil) // the finish error is the one worth reporting
		return nil, outcome{}, err
	}
	return s, o, nil
}

// bench runs one workload and keeps the attempted/failed tally. A run
// fails when it returns an error, panics, or disagrees with its
// reference.
type bench struct {
	w         workload
	seed      int64
	deadline  time.Time
	attempted int
	failed    int
}

func (b *bench) simulate(what string, fn func() error) {
	b.attempted++
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v", p)
			}
		}()
		return fn()
	}()
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "layerbench: %s: %v\n", what, err)
	}
}

func describe(cfg ewmac.Config) string {
	return fmt.Sprintf("%s %d nodes load %.1f seed %d", cfg.Protocol, cfg.Nodes, cfg.OfferedLoadKbps, cfg.Seed)
}

func mismatch(what string, got, want outcome) error {
	if reflect.DeepEqual(got, want) {
		return nil
	}
	return fmt.Errorf("%s differs: got %+v, want %+v", what, got, want)
}

// untraced measures the end-to-end metrics. One untimed pass through the
// bare assembly warms caches and yields the reference outcomes. Then,
// until the time budget is spent, setup is timed setupsPerRep times and
// the workload runs once through ewmac.Run, each run checked against its
// reference.
func (b *bench) untraced() (map[string]metric, error) {
	cfgs := b.w.configs(b.seed)
	refs := make([]outcome, len(cfgs))
	for i, cfg := range cfgs {
		b.simulate(describe(cfg), func() (err error) {
			_, refs[i], err = runStack(cfg, nil)
			return err
		})
	}

	// Setup samples are interleaved with the timed repetitions so both
	// see the same stretch of host time.
	var setup, wall, alloc, peak []float64
	var last time.Duration
	for len(wall) < minReps || time.Now().Add(last).Before(b.deadline) {
		iter := time.Now()
		for k := 0; k < setupsPerRep; k++ {
			d, err := b.setupOnce()
			if err != nil {
				return nil, err
			}
			setup = append(setup, d.Seconds())
		}
		cfgs = b.w.configs(b.seed)
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		hp := startHeapPeak()
		start := time.Now()
		for i, cfg := range cfgs {
			b.simulate(describe(cfg), func() error {
				o, err := runPublic(cfg)
				if err != nil {
					return err
				}
				return mismatch("ewmac.Run against the assembled stack", o, refs[i])
			})
		}
		d := time.Since(start)
		p := hp.finish()
		runtime.ReadMemStats(&after)
		wall = append(wall, d.Seconds())
		alloc = append(alloc, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
		peak = append(peak, float64(p)/1e6)
		last = time.Since(iter)
	}
	fmt.Fprintf(os.Stderr, "wall_s samples %.4f\nsetup_s samples %.4f\n", wall, setup)
	return map[string]metric{
		"wall_s":       {median(wall), "s"},
		"setup_s":      {median(setup), "s"},
		"alloc_mb":     {median(alloc), "MB"},
		"heap_peak_mb": {median(peak), "MB"},
	}, nil
}

// setupOnce builds every run's bare stack and carries it through the
// Hello warm-up, returning the summed host time.
func (b *bench) setupOnce() (time.Duration, error) {
	var total time.Duration
	for _, cfg := range b.w.configs(b.seed) {
		runtime.GC() // collect the previous stack outside the timed span
		start := time.Now()
		s, err := buildStack(cfg, nil)
		if err != nil {
			return 0, err
		}
		s.eng.RunUntil(sim.At(cfg.Warmup))
		total += time.Since(start)
		if err := s.close(nil); err != nil {
			return 0, err
		}
	}
	return total, nil
}

// heapPeak samples the bytes in heap objects (live and not yet swept)
// from a goroutine of its own until finish is called.
type heapPeak struct {
	stop, done chan struct{}
	peak       uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			rtmetrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it to exit, and returns the peak.
func (h *heapPeak) finish() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// counts are the exact per-layer counts of one traced pass; they must
// repeat identically on every pass of one seed.
type counts struct {
	calls            [numLayers]uint64
	events           uint64
	receivers        uint64
	geomHits         uint64
	geomMisses       uint64
	decoded          uint64
	collisions       uint64
	delivered        uint64
	extraAttempts    uint64
	extraCompletions uint64
	pendingPeak      int
	airtime          time.Duration
	nodeTime         time.Duration
	obsEvents        uint64
	oracleChecked    uint64
	violations       uint64
	indexPeak        int
	traceBytes       int64
	spanBytes        int64
}

func (c *counts) add(s *stack, o outcome) {
	c.events += s.eng.Executed()
	c.receivers += s.ch.Deliveries()
	hits, misses := s.ch.CacheStats()
	c.geomHits += hits
	c.geomMisses += misses
	for _, m := range s.modems {
		st := m.Stats()
		c.decoded += st.FramesRx
		c.collisions += st.Collisions
	}
	c.delivered += o.Summary.MAC.DeliveredPackets
	c.extraAttempts += o.Summary.MAC.ExtraAttempts
	c.extraCompletions += o.Summary.MAC.ExtraCompletions
	c.nodeTime += time.Duration(s.net.Len()) * s.cfg.SimTime
	if st := o.Conformance; st != nil {
		c.oracleChecked += st.Receptions + st.Losses
		c.violations += st.Violations
		c.indexPeak = max(c.indexPeak, st.PeakArrivals+st.PeakTxSpans)
	}
	c.traceBytes += o.TraceBytes
	c.spanBytes += o.SpanBytes
}

// pass is one traced pass and the untraced pass it is compared with.
type pass struct {
	counts
	self         [numLayers]time.Duration
	build, hello time.Duration
	runUntil     time.Duration
	tracedWall   time.Duration
	untracedWall time.Duration
}

// traced measures the per-layer metrics: the drivers first, then pairs
// of an untraced pass through ewmac.Run and a traced pass through the
// decorated assembly, until the time budget is spent. Every traced run
// must match its untraced twin, and every pass's exact counts must
// match the first pass's.
func (b *bench) traced() (map[string]metric, error) {
	out, err := runDrivers()
	if err != nil {
		return nil, err
	}
	var passes []pass
	var last time.Duration
	for len(passes) < minReps || time.Now().Add(last).Before(b.deadline) {
		start := time.Now()
		p, err := b.tracedPass()
		if err != nil {
			return nil, err
		}
		last = time.Since(start)
		if len(passes) > 0 && p.counts != passes[0].counts {
			b.attempted++
			b.failed++
			fmt.Fprintf(os.Stderr, "layerbench: exact counts differ between passes of seed %d:\n%+v\n%+v\n",
				b.seed, p.counts, passes[0].counts)
		}
		passes = append(passes, p)
	}
	c := passes[0].counts
	sec := func(get func(p pass) time.Duration) metric {
		v := make([]float64, len(passes))
		for i, p := range passes {
			v[i] = get(p).Seconds()
		}
		return metric{median(v), "s"}
	}
	self := func(l layer) metric { return sec(func(p pass) time.Duration { return p.self[l] }) }
	ratio := func(num, den float64) metric {
		if den == 0 {
			return metric{0, "ratio"}
		}
		return metric{num / den, "ratio"}
	}
	count := func(v uint64) metric { return metric{float64(v), "count"} }
	residual := self(layerEngine)
	untracedWall := sec(func(p pass) time.Duration { return p.untracedWall })
	overhead := make([]float64, len(passes))
	for i, p := range passes {
		overhead[i] = p.tracedWall.Seconds() / p.untracedWall.Seconds()
	}
	for name, m := range map[string]metric{
		"setup.build_s":                sec(func(p pass) time.Duration { return p.build }),
		"setup.hello_s":                sec(func(p pass) time.Duration { return p.hello }),
		"engine.rununtil_s":            sec(func(p pass) time.Duration { return p.runUntil }),
		"engine.events":                count(c.events),
		"engine.events_per_s":          {float64(c.events) / untracedWall.Value, "1/s"},
		"engine.pending_peak":          count(uint64(c.pendingPeak)),
		"engine.residual_s":            residual,
		"engine.residual_ns_per_event": {residual.Value * 1e9 / float64(max(c.events, 1)), "ns"},
		"topology.step_s":              self(layerTopo),
		"topology.steps":               count(c.calls[layerTopo]),
		"channel.broadcast_s":          self(layerChannel),
		"channel.broadcasts":           count(c.calls[layerChannel]),
		"channel.receivers":            count(c.receivers),
		"channel.geom_rebuilds":        count(c.geomMisses),
		"channel.geom_hit_ratio":       ratio(float64(c.geomHits), float64(c.geomHits+c.geomMisses)),
		"phy.decoded":                  count(c.decoded),
		"phy.collisions":               count(c.collisions),
		"phy.decode_ratio":             ratio(float64(c.decoded), float64(c.receivers)),
		"phy.overlap":                  {c.airtime.Seconds() / c.nodeTime.Seconds(), "arrivals"},
		"mac.rx_s":                     self(layerMACRx),
		"mac.rx_calls":                 count(c.calls[layerMACRx]),
		"mac.loss_s":                   self(layerMACLoss),
		"mac.loss_calls":               count(c.calls[layerMACLoss]),
		"mac.txdone_s":                 self(layerMACTxDone),
		"mac.txdone_calls":             count(c.calls[layerMACTxDone]),
		"mac.enqueue_s":                self(layerMACEnqueue),
		"mac.enqueue_calls":            count(c.calls[layerMACEnqueue]),
		"mac.delivered":                count(c.delivered),
		"mac.extra_success":            ratio(float64(c.extraCompletions), float64(c.extraAttempts)),
		"oracle.record_s":              self(layerOracle),
		"oracle.checked":               count(c.oracleChecked),
		"oracle.violations":            count(c.violations),
		"oracle.index_peak":            count(uint64(c.indexPeak)),
		"obs.trace_s":                  self(layerObsTrace),
		"obs.spans_s":                  self(layerObsSpans),
		"obs.report_s":                 self(layerObsReport),
		"obs.events":                   count(c.obsEvents),
		"obs.trace_bytes":              {float64(c.traceBytes), "B"},
		"obs.span_bytes":               {float64(c.spanBytes), "B"},
		"trace.overhead":               {median(overhead), "ratio"},
	} {
		out[name] = m
	}
	return out, nil
}

// tracedPass runs the workload once through ewmac.Run and once through
// the traced assembly, comparing each run's outcome.
func (b *bench) tracedPass() (pass, error) {
	var p pass
	cfgs := b.w.configs(b.seed)
	refs := make([]outcome, len(cfgs))
	start := time.Now()
	for i, cfg := range cfgs {
		b.simulate(describe(cfg), func() (err error) {
			refs[i], err = runPublic(cfg)
			return err
		})
	}
	p.untracedWall = time.Since(start)

	t := newTracer()
	cfgs = b.w.configs(b.seed)
	start = time.Now()
	for i, cfg := range cfgs {
		b.simulate("traced "+describe(cfg), func() error {
			s, o, err := runStack(cfg, t)
			if err != nil {
				return err
			}
			p.counts.add(s, o)
			return mismatch("traced assembly against ewmac.Run", o, refs[i])
		})
	}
	p.tracedWall = time.Since(start)
	if err := t.check(); err != nil {
		return p, err
	}
	p.calls = t.calls
	p.pendingPeak = t.pendingPeak
	p.airtime = t.airtime
	p.obsEvents = t.obsEvents
	p.self = t.self
	p.build = t.total[layerBuild]
	p.hello = t.hello
	p.runUntil = t.total[layerEngine]
	return p, nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func printTable(workload string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "workload %s\n", workload)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-30s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
