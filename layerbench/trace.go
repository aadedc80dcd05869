package main

import (
	"fmt"
	"time"

	"ewmac/internal/mac"
	"ewmac/internal/obs"
	"ewmac/internal/packet"
	"ewmac/internal/phy"
	"ewmac/internal/sim"
)

// layer names one timed interface boundary of the assembled stack.
type layer int

const (
	layerBuild      layer = iota // stack construction (deploy → generators armed)
	layerEngine                  // sim.Engine.RunUntil; its self time is the residual
	layerTopo                    // topology.Network.Step
	layerChannel                 // phy.Medium.Broadcast (the channel)
	layerMACRx                   // phy.Listener.OnFrameReceived
	layerMACLoss                 // phy.Listener.OnFrameLost
	layerMACTxDone               // phy.Listener.OnTxDone
	layerMACEnqueue              // traffic.Sink.Enqueue
	layerObsTrace                // obs.Recorder: trace-v2 JSONL exporter
	layerObsSpans                // obs.Recorder: causal span assembler
	layerObsReport               // obs.Recorder: report collector
	layerOracle                  // obs.Recorder: streaming conformance oracle
	numLayers
)

// openSpan is one layer call in progress.
type openSpan struct {
	l     layer
	start time.Duration
	child time.Duration // time covered by spans nested inside this one
}

// tracer accumulates per-layer self time (a span minus the spans nested
// inside it) and call counts. Spans nest strictly because the whole
// simulation runs on one goroutine, so a stack is enough.
type tracer struct {
	base  time.Time
	open  []openSpan
	self  [numLayers]time.Duration
	total [numLayers]time.Duration
	calls [numLayers]uint64
	// root sums the durations of spans opened with no span around them.
	root  time.Duration
	hello time.Duration // RunUntil time up to the end of the warm-up

	// Sampled inside the Broadcast decorator, so sampling schedules no
	// events of its own.
	eng         *sim.Engine
	pendingPeak int
	// airtime sums on-air duration × receivers over every broadcast: the
	// receiver-seconds of arrivals the PHY processed.
	airtime   time.Duration
	obsEvents uint64
}

func newTracer() *tracer { return &tracer{base: time.Now(), open: make([]openSpan, 0, 16)} }

func (t *tracer) now() time.Duration { return time.Since(t.base) }

func (t *tracer) begin(l layer) {
	t.open = append(t.open, openSpan{l: l, start: t.now()})
}

func (t *tracer) end() {
	now := t.now()
	top := len(t.open) - 1
	s := t.open[top]
	t.open = t.open[:top]
	d := now - s.start
	t.self[s.l] += d - s.child
	t.total[s.l] += d
	t.calls[s.l]++
	if top > 0 {
		t.open[top-1].child += d
	} else {
		t.root += d
	}
}

// check verifies the bookkeeping: every span closed, no negative self
// time, and the self times summing exactly to the root spans' wall.
func (t *tracer) check() error {
	var sum time.Duration
	for l, d := range t.self {
		if d < 0 {
			return fmt.Errorf("tracer: layer %d has negative self time %v", l, d)
		}
		sum += d
	}
	if len(t.open) != 0 || sum != t.root {
		return fmt.Errorf("tracer: %d spans open, self times sum to %v against %v of root spans",
			len(t.open), sum, t.root)
	}
	return nil
}

// tracedMedium times the channel's Broadcast.
type tracedMedium struct {
	t     *tracer
	inner phy.Medium
	// receivers reports the channel's scheduled-arrival count, read
	// around each call to attribute on-air time to receivers.
	receivers func() uint64
}

func (m *tracedMedium) Broadcast(src packet.NodeID, f *packet.Frame, dur time.Duration) error {
	if p := m.t.eng.Pending(); p > m.t.pendingPeak {
		m.t.pendingPeak = p
	}
	before := m.receivers()
	m.t.begin(layerChannel)
	err := m.inner.Broadcast(src, f, dur)
	m.t.end()
	m.t.airtime += dur * time.Duration(m.receivers()-before)
	return err
}

// tracedListener times the MAC's three modem callbacks.
type tracedListener struct {
	t     *tracer
	inner phy.Listener
}

func (l *tracedListener) OnFrameReceived(f *packet.Frame) {
	l.t.begin(layerMACRx)
	l.inner.OnFrameReceived(f)
	l.t.end()
}

func (l *tracedListener) OnFrameLost(f *packet.Frame, r phy.LossReason) {
	l.t.begin(layerMACLoss)
	l.inner.OnFrameLost(f, r)
	l.t.end()
}

func (l *tracedListener) OnTxDone(f *packet.Frame) {
	l.t.begin(layerMACTxDone)
	l.inner.OnTxDone(f)
	l.t.end()
}

// tracedSink times the traffic generator's hand-off to the MAC.
type tracedSink struct {
	t     *tracer
	inner mac.Protocol
}

func (s *tracedSink) Enqueue(p mac.AppPacket) {
	s.t.begin(layerMACEnqueue)
	s.inner.Enqueue(p)
	s.t.end()
}

// tracedRecorder times one consumer of the obs fan-out.
type tracedRecorder struct {
	t     *tracer
	l     layer
	inner obs.Recorder
}

func (r *tracedRecorder) Record(at sim.Time, e obs.Event) {
	r.t.begin(r.l)
	r.inner.Record(at, e)
	r.t.end()
}

// countingRecorder counts events entering the fan-out. It opens no
// span: the fan-out's own dispatch is not a layer.
type countingRecorder struct {
	t     *tracer
	inner obs.Recorder
}

func (r *countingRecorder) Record(at sim.Time, e obs.Event) {
	r.t.obsEvents++
	r.inner.Record(at, e)
}

// do runs fn as one span of layer l; a nil tracer just runs fn.
func (t *tracer) do(l layer, fn func()) {
	if t == nil {
		fn()
		return
	}
	t.begin(l)
	fn()
	t.end()
}
