package main

import (
	"errors"
	"fmt"
	"time"

	"ewmac"
	"ewmac/internal/acoustic"
	"ewmac/internal/channel"
	"ewmac/internal/energy"
	"ewmac/internal/mac"
	"ewmac/internal/mac/csmac"
	macew "ewmac/internal/mac/ewmac"
	"ewmac/internal/mac/ropa"
	"ewmac/internal/mac/sfama"
	"ewmac/internal/metrics"
	"ewmac/internal/obs"
	"ewmac/internal/obs/span"
	"ewmac/internal/oracle"
	"ewmac/internal/packet"
	"ewmac/internal/phy"
	"ewmac/internal/routing"
	"ewmac/internal/sim"
	"ewmac/internal/topology"
	"ewmac/internal/traffic"
	"ewmac/internal/vec"
)

// stack is one simulation put together from the layers' public
// constructors in the order ewmac.Run builds it, so the same Config
// schedules the same events in the same order and yields the same
// Summary. It covers the configurations the workloads use: Poisson
// load, no faults, no overload management, no budget, and at most the
// trace, spans, report and verify consumers of Observe.
type stack struct {
	cfg      ewmac.Config
	eng      *sim.Engine
	net      *topology.Network
	ch       *channel.Channel
	modems   []*phy.Modem
	protos   []mac.Protocol
	baseline []energy.Breakdown

	jsonl     *obs.JSONL
	spans     *span.Assembler
	collector *obs.Collector
	verifier  *oracle.Streaming
	closed    bool
}

// checkSupported rejects Config fields the assembly does not mirror, so
// a workload edit that needs them fails loudly instead of comparing two
// different programs.
func checkSupported(cfg ewmac.Config) error {
	switch {
	case cfg.Model != nil || cfg.PER != nil || cfg.Energy != (energy.Profile{}):
		return errors.New("stack: custom model, PER or energy profile")
	case cfg.Faults != nil || cfg.Recovery != nil || cfg.Overload.Armed():
		return errors.New("stack: faults, recovery or overload management")
	case cfg.FixedBatch > 0 || cfg.ClosedLoop || cfg.Budget.Enabled() || cfg.DisableGeometryCache:
		return errors.New("stack: batch load, closed loop, budget or cache override")
	case cfg.Instrument != nil:
		return errors.New("stack: legacy instrumentation")
	}
	if o := cfg.Observe; o != nil && (o.Recorder != nil || o.TimeSeries != nil || o.SlotProfile != nil) {
		return errors.New("stack: observe recorder, time series or slot profile")
	}
	return cfg.Validate()
}

// buildStack constructs the stack and arms every generator, leaving the
// engine at time zero. A non-nil tracer wraps every layer boundary in a
// timing decorator; nil builds the bare stack.
func buildStack(cfg ewmac.Config, t *tracer) (*stack, error) {
	if err := checkSupported(cfg); err != nil {
		return nil, err
	}
	if t != nil {
		t.begin(layerBuild)
		defer t.end()
	}
	model := acoustic.DefaultModel()
	prof := energy.DefaultProfile()
	eng := sim.NewEngine(cfg.Seed)
	net, err := topology.Deploy(topology.DeployConfig{
		Nodes:     cfg.Nodes,
		Sinks:     cfg.Sinks,
		Region:    vec.Cube(cfg.RegionSide),
		Mobile:    cfg.MobileFraction,
		CurrentMS: cfg.CurrentMS,
	}, model, eng.RNG("deploy"))
	if err != nil {
		return nil, err
	}
	ch, err := channel.New(eng, net)
	if err != nil {
		return nil, err
	}
	s := &stack{cfg: cfg, eng: eng, net: net, ch: ch}
	slots := mac.SlotConfig{
		Omega:  packet.Duration(packet.ControlBits, model.BitRate()),
		TauMax: model.MaxDelay(),
	}
	rec := s.buildObs(model, t)
	if rec != nil {
		ch.SetRecorder(rec)
	}
	var medium phy.Medium = ch
	if t != nil {
		t.eng = eng
		medium = &tracedMedium{t: t, inner: ch, receivers: ch.Deliveries}
	}

	for _, n := range net.Nodes() {
		modem, err := phy.NewModem(phy.Config{
			ID: n.ID, Engine: eng, Model: model, Medium: medium, Energy: prof,
		})
		if err != nil {
			return nil, err
		}
		if err := ch.Register(modem); err != nil {
			return nil, err
		}
		if rec != nil {
			modem.SetRecorder(rec)
		}
		proto, err := buildProtocol(cfg, mac.Config{
			ID:          n.ID,
			Engine:      eng,
			Modem:       modem,
			Slots:       slots,
			BitRate:     model.BitRate(),
			IsSink:      n.Sink,
			QueueMax:    cfg.QueueMax,
			MaxRetries:  cfg.MaxRetries,
			CWMax:       cfg.CWMax,
			EnableHello: true,
			HelloWindow: cfg.Warmup,
			Recorder:    rec,
			Overload:    cfg.Overload,
		})
		if err != nil {
			return nil, err
		}
		var l phy.Listener = proto
		if t != nil {
			l = &tracedListener{t: t, inner: proto}
		}
		modem.SetListener(l)
		s.modems = append(s.modems, modem)
		s.protos = append(s.protos, proto)
	}
	for _, p := range s.protos {
		p.Start()
	}

	warmupAt, endAt := sim.At(cfg.Warmup), sim.At(cfg.SimTime)
	if cfg.OfferedLoadKbps > 0 {
		route := func(from packet.NodeID) (packet.NodeID, bool) { return routing.NextHop(net, from) }
		rate := traffic.PerNodeRate(cfg.OfferedLoadKbps, cfg.DataBits, cfg.Nodes)
		for i, n := range net.Nodes() {
			if n.Sink {
				continue
			}
			var sink traffic.Sink = s.protos[i]
			if t != nil {
				sink = &tracedSink{t: t, inner: s.protos[i]}
			}
			gen, err := traffic.NewGenerator(traffic.Config{
				Node: n.ID, Engine: eng, Sink: sink, Route: route, RatePPS: rate,
				Bits: cfg.DataBits, Start: warmupAt, Stop: endAt, HighEvery: cfg.PriorityEvery,
			})
			if err != nil {
				return nil, err
			}
			gen.Start()
		}
	}
	if cfg.MobileFraction > 0 && cfg.CurrentMS > 0 {
		var step func()
		step = func() {
			t.do(layerTopo, func() { net.Step(cfg.MobilityStep) })
			if eng.Now().Add(cfg.MobilityStep).Before(endAt) {
				eng.ScheduleIn(cfg.MobilityStep, sim.PriorityObserver, step)
			}
		}
		eng.ScheduleIn(cfg.MobilityStep, sim.PriorityObserver, step)
	}
	s.baseline = make([]energy.Breakdown, len(s.modems))
	eng.MustScheduleAt(warmupAt, sim.PriorityObserver, func() {
		for i, m := range s.modems {
			if b, err := m.Energy(); err == nil {
				s.baseline[i] = b
			}
		}
	})
	return s, nil
}

// buildObs assembles the obs fan-out in ewmac.Run's order (trace,
// spans, report, then the verifier last, re-emitting into the same
// fan-out). It returns nil when the Config observes nothing.
func (s *stack) buildObs(model *acoustic.Model, t *tracer) obs.Recorder {
	o := s.cfg.Observe
	if o == nil {
		return nil
	}
	wrap := func(l layer, r obs.Recorder) obs.Recorder {
		if t == nil {
			return r
		}
		return &tracedRecorder{t: t, l: l, inner: r}
	}
	var recs []obs.Recorder
	if o.Trace != nil {
		s.jsonl = obs.NewJSONL(o.Trace)
		recs = append(recs, wrap(layerObsTrace, s.jsonl))
	}
	if o.Spans != nil {
		s.spans = span.New(o.Spans)
		s.spans.WriteMeta(s.cfg.Protocol.DisplayName(), s.cfg.Seed, s.cfg.Nodes)
		recs = append(recs, wrap(layerObsSpans, s.spans))
	}
	if o.Report {
		s.collector = obs.NewCollector()
		recs = append(recs, wrap(layerObsReport, s.collector))
	}
	if o.Verify {
		horizon := time.Duration(float64(model.MaxDelay()) * channel.InterferenceRangeFactor)
		s.verifier = oracle.NewStreaming(model.BitRate(), model.SINRThresholdDB, horizon)
		recs = append(recs, wrap(layerOracle, s.verifier))
	}
	rec := obs.Multi(recs...)
	if rec != nil && t != nil {
		rec = &countingRecorder{t: t, inner: rec}
	}
	if s.verifier != nil {
		s.verifier.SetSink(rec)
	}
	return rec
}

func buildProtocol(cfg ewmac.Config, mcfg mac.Config) (mac.Protocol, error) {
	switch cfg.Protocol {
	case ewmac.EWMAC:
		return macew.New(mcfg, cfg.EW)
	case ewmac.SFAMA:
		return sfama.New(mcfg)
	case ewmac.ROPA:
		return ropa.New(mcfg, cfg.Ropa)
	case ewmac.CSMAC:
		return csmac.New(mcfg, cfg.CS)
	default:
		return nil, fmt.Errorf("stack: protocol %q not assembled", cfg.Protocol)
	}
}

// close drains the stream consumers (stopping the trace writer's
// goroutine) and is safe to call twice.
func (s *stack) close(t *tracer) error {
	if s.closed {
		return nil
	}
	s.closed = true
	var errs []error
	if s.jsonl != nil {
		t.do(layerObsTrace, func() { errs = append(errs, s.jsonl.Close()) })
	}
	if s.spans != nil {
		t.do(layerObsSpans, func() { errs = append(errs, s.spans.Close()) })
	}
	return errors.Join(errs...)
}

// finish closes the streams and reduces the per-node counters exactly
// as ewmac.Run does. Call it after running the engine to SimTime.
func (s *stack) finish(t *tracer) (outcome, error) {
	var res outcome
	samples := make([]metrics.NodeSample, 0, len(s.modems))
	for i, m := range s.modems {
		b, err := m.Energy()
		if err != nil {
			return res, err
		}
		base := s.baseline[i]
		samples = append(samples, metrics.NodeSample{
			MAC: s.protos[i].Counters(),
			PHY: m.Stats(),
			Energy: energy.Breakdown{
				IdleJ:  b.IdleJ - base.IdleJ,
				RxJ:    b.RxJ - base.RxJ,
				TxJ:    b.TxJ - base.TxJ,
				SleepJ: b.SleepJ - base.SleepJ,
			},
			IsSink: s.net.Nodes()[i].Sink,
		})
	}
	sum, err := metrics.Summarize(samples, s.cfg.SimTime-s.cfg.Warmup, s.cfg.DataBits)
	if err != nil {
		return res, err
	}
	res.Summary = sum
	if err := s.close(t); err != nil {
		return res, err
	}
	if s.collector != nil {
		// The report itself is not compared; building it is part of the
		// collector's cost, as in ewmac.Run.
		t.do(layerObsReport, func() { s.collector.Report((s.cfg.SimTime - s.cfg.Warmup).Seconds()) })
	}
	if s.verifier != nil {
		st := s.verifier.Stats()
		res.Conformance = &st
	}
	res.TraceBytes, res.SpanBytes = streamBytes(s.cfg)
	return res, nil
}

// byteCounter is an io.Writer that only counts. The trace writer's
// goroutine writes to it; read n only after the stream is closed.
type byteCounter struct{ n int64 }

func (c *byteCounter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}
