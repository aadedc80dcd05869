package channel

import (
	"time"

	"ewmac/internal/packet"
	"ewmac/internal/phy"
	"ewmac/internal/sim"
)

// flight is one transmission's arrivals on their way through the
// engine. Scheduled one by one, they would cost two heap entries and
// three allocations per receiver; a flight costs two heap entries in
// all. Its begin wave walks the hops in (at, seq) order, starting each
// arrival; its end wave finishes them in the same order one on-air
// duration later. Both use the seqs the per-receiver events would have
// drawn (see launch and beginWave.Fire), so the engine runs every
// arrival exactly where it ran them before.
type flight struct {
	ch    *Channel
	frame *packet.Frame
	dur   time.Duration
	hops  []hop
	// begun counts hops whose arrival has started, ended those whose
	// arrival has finished; ended <= begun <= len(hops).
	begun, ended int
	// endQueued is set while the end wave is in the engine's heap. It
	// leaves the heap when it catches up with the begin wave.
	endQueued bool
}

// hop is one path's arrival, copied out of the geometry cache: a
// rebuild may overwrite the cached row while the flight is in the air.
type hop struct {
	rx       *phy.Modem
	levelDB  float64
	levelLin float64
	at       sim.Time // when the arrival begins
	seq      uint64   // the begin's engine seq
	endSeq   uint64   // the end's engine seq, drawn when the begin runs
	arr      *phy.Arrival
	syncable bool
}

// beginWave and endWave are a flight's two engine waves.
type (
	beginWave flight
	endWave   flight
)

// launch sends frame down g's paths. It reserves one seq per path, so
// each path's arrival gets the seq that a ScheduleIn per path, in
// index order, would have drawn.
func (c *Channel) launch(frame *packet.Frame, dur time.Duration, g *srcGeoms) {
	var fl *flight
	if n := len(c.flights); n > 0 {
		fl = c.flights[n-1]
		c.flights = c.flights[:n-1]
	} else {
		fl = &flight{ch: c}
	}
	fl.frame, fl.dur = frame, dur
	now := c.eng.Now()
	base := c.eng.Reserve(len(g.paths))
	for _, k := range g.order {
		i := g.index(k)
		p := &g.paths[i]
		fl.hops = append(fl.hops, hop{
			rx: p.rx, levelDB: p.levelDB, levelLin: p.levelLin,
			at: now.Add(p.delay), seq: base + i, syncable: p.syncable,
		})
	}
	h := &fl.hops[0]
	c.eng.ScheduleWave((*beginWave)(fl), h.at, sim.PriorityPHY, h.seq)
}

// Advance implements sim.Wave.
func (w *beginWave) Advance() (sim.Time, sim.Priority, uint64, bool) {
	w.begun++
	if w.begun == len(w.hops) {
		return 0, 0, 0, false
	}
	h := &w.hops[w.begun]
	return h.at, sim.PriorityPHY, h.seq, true
}

// Fire implements sim.Wave: it starts the arrival and queues its end,
// drawing the end's seq now, as BeginArrival's ScheduleIn would.
func (w *beginWave) Fire() {
	h := &w.hops[w.begun-1]
	if w.ch.onStart != nil {
		w.ch.onStart(h)
	}
	h.arr = h.rx.StartArrival(w.frame, h.levelDB, h.levelLin, h.syncable)
	h.endSeq = w.ch.eng.Reserve(1)
	// With dur fixed per frame, ends come in begin order: appending
	// keeps the end wave sorted, and only an empty one needs queueing.
	if !w.endQueued {
		w.endQueued = true
		w.ch.eng.ScheduleWave((*endWave)(w), h.at.Add(w.dur), sim.PriorityPHY, h.endSeq)
	}
}

// Advance implements sim.Wave.
func (w *endWave) Advance() (sim.Time, sim.Priority, uint64, bool) {
	w.ended++
	if w.ended == w.begun {
		w.endQueued = false
		return 0, 0, 0, false
	}
	h := &w.hops[w.ended]
	return h.at.Add(w.dur), sim.PriorityPHY, h.endSeq, true
}

// Fire implements sim.Wave: it ends the arrival, and returns the flight
// to the pool after its last one.
func (w *endWave) Fire() {
	h := &w.hops[w.ended-1]
	h.rx.EndArrival(h.arr)
	if w.ended == len(w.hops) {
		w.ch.release((*flight)(w))
	}
}

func (c *Channel) release(fl *flight) {
	fl.hops = fl.hops[:0]
	fl.frame = nil
	fl.begun, fl.ended = 0, 0
	c.flights = append(c.flights, fl)
}
