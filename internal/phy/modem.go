// Package phy implements the half-duplex acoustic modem: transmit
// scheduling, arrival tracking, SINR-based collision resolution, and
// per-state energy metering. It is deliberately protocol-agnostic — the
// MAC layer sees successfully decoded frames (including everything it
// overhears) plus a transmit-complete callback, which is exactly the
// interface NS-3's UAN PHY presents to its MAC models.
package phy

import (
	"errors"
	"fmt"
	"time"

	"ewmac/internal/acoustic"
	"ewmac/internal/energy"
	"ewmac/internal/obs"
	"ewmac/internal/packet"
	"ewmac/internal/sim"
)

// ErrBusy is returned by Transmit while a transmission is in progress:
// the transducer is half-duplex and single-channel.
var ErrBusy = errors.New("phy: modem already transmitting")

// ErrDown is returned by Transmit while the modem is down (crashed
// node or transient outage injected by the fault layer).
var ErrDown = errors.New("phy: modem down")

// LossReason classifies why a decodable frame was not delivered. Real
// modems cannot always tell these apart; the reasons feed metrics, not
// protocol logic.
type LossReason uint8

// Loss reasons.
const (
	// LossCollision means concurrent arrivals drove SINR below the
	// receiver threshold.
	LossCollision LossReason = iota + 1
	// LossTxDuringRx means the modem was transmitting during part of
	// the arrival (half-duplex self-blocking).
	LossTxDuringRx
	// LossChannel means the frame failed the PER draw without
	// interference (marginal link).
	LossChannel
)

// String implements fmt.Stringer.
func (r LossReason) String() string {
	switch r {
	case LossCollision:
		return "collision"
	case LossTxDuringRx:
		return "tx-during-rx"
	case LossChannel:
		return "channel"
	default:
		return fmt.Sprintf("LossReason(%d)", uint8(r))
	}
}

// Listener receives modem events. The MAC layer implements this.
type Listener interface {
	// OnFrameReceived delivers every successfully decoded frame,
	// whether or not this node is the destination (overhearing).
	OnFrameReceived(f *packet.Frame)
	// OnFrameLost reports a frame that would have been decodable but
	// was lost; for metrics only.
	OnFrameLost(f *packet.Frame, reason LossReason)
	// OnTxDone fires when the modem finishes clocking out a frame.
	OnTxDone(f *packet.Frame)
}

// Medium propagates a transmission to other modems. The channel package
// implements it against the deployed topology.
type Medium interface {
	// Broadcast delivers f (with on-air duration dur) to every other
	// modem, applying propagation delay and attenuation. A non-nil error
	// means the medium dropped the transmission entirely (e.g. the
	// source is not part of the deployed topology); the transmitter
	// still spent its on-air time and energy.
	Broadcast(src packet.NodeID, f *packet.Frame, dur time.Duration) error
}

// Stats counts modem activity for the metrics layer.
type Stats struct {
	FramesTx   uint64
	BitsTx     uint64
	FramesRx   uint64
	BitsRx     uint64
	Collisions uint64
	TxSelfLoss uint64
	PERLosses  uint64
	// ControlBitsTx / DataBitsTx / PiggybackBitsTx split BitsTx for
	// overhead accounting (Figure 10).
	ControlBitsTx   uint64
	DataBitsTx      uint64
	PiggybackBitsTx uint64
	// ExtraFramesTx counts opportunistic frames (EX*/RTA/stolen).
	ExtraFramesTx uint64
}

// Arrival is one signal in the air at a modem, from StartArrival to
// EndArrival. Records are pooled per modem.
type Arrival struct {
	frame     *packet.Frame
	levelDB   float64
	levelLin  float64
	corruptTx bool
	decodable bool
	// maxOtherLin is the worst concurrent interference power observed
	// while this arrival was in the air.
	maxOtherLin float64
}

// Modem is one node's acoustic transducer.
type Modem struct {
	id       packet.NodeID
	eng      *sim.Engine
	model    *acoustic.Model
	per      acoustic.PERModel
	medium   Medium
	listener Listener
	meter    *energy.Meter
	rng      *sim.RNG
	// noiseLin / noiseDB are the model's ambient noise floor, fixed when
	// the modem is built: the Wenz inputs never change during a run, and
	// recomputing them on every arrival dominated the PHY's cost.
	noiseLin float64
	noiseDB  float64

	transmitting bool
	txFrame      *packet.Frame
	arrivals     []*Arrival
	freeArr      []*Arrival // ended records, reused by newArrival
	stats        Stats
	down         bool
	// rec is the structured event sink (nil when observability is off).
	rec obs.Recorder
}

// Config assembles a modem. Model is read when the modem is built (the
// ambient noise floor is computed once, then) and must not be mutated
// afterwards; one model may be shared by many modems and concurrent runs.
type Config struct {
	ID       packet.NodeID
	Engine   *sim.Engine
	Model    *acoustic.Model
	PER      acoustic.PERModel
	Medium   Medium
	Listener Listener
	Energy   energy.Profile
}

// NewModem validates cfg and returns a modem in the idle-listening
// state.
func NewModem(cfg Config) (*Modem, error) {
	switch {
	case cfg.ID == packet.Nobody || cfg.ID == packet.Broadcast:
		return nil, fmt.Errorf("phy: invalid modem ID %v", cfg.ID)
	case cfg.Engine == nil:
		return nil, errors.New("phy: nil engine")
	case cfg.Model == nil:
		return nil, errors.New("phy: nil acoustic model")
	case cfg.Medium == nil:
		return nil, errors.New("phy: nil medium")
	}
	if err := cfg.Energy.Validate(); err != nil {
		return nil, err
	}
	per := cfg.PER
	if per == nil {
		per = acoustic.ThresholdPER{ThresholdDB: cfg.Model.SINRThresholdDB}
	}
	noiseLin := acoustic.DBToLin(cfg.Model.NoiseLevelDB())
	return &Modem{
		id:       cfg.ID,
		eng:      cfg.Engine,
		model:    cfg.Model,
		per:      per,
		medium:   cfg.Medium,
		listener: cfg.Listener,
		meter:    energy.NewMeter(cfg.Energy, cfg.Engine.Now()),
		rng:      cfg.Engine.RNG(fmt.Sprintf("phy/%d", cfg.ID)),
		noiseLin: noiseLin,
		noiseDB:  acoustic.LinToDB(noiseLin),
	}, nil
}

// ID reports the modem's node ID.
func (m *Modem) ID() packet.NodeID { return m.id }

// SetListener installs the MAC callback sink. It must be called before
// the simulation starts; a nil listener drops events.
func (m *Modem) SetListener(l Listener) { m.listener = l }

// SetRecorder installs the observability event sink (nil to disable).
// The modem records obs.TxBegin, obs.FrameRx, and obs.FrameLoss.
func (m *Modem) SetRecorder(r obs.Recorder) { m.rec = r }

// Stats returns a copy of the activity counters.
func (m *Modem) Stats() Stats { return m.stats }

// Energy returns the cumulative energy breakdown as of now.
func (m *Modem) Energy() (energy.Breakdown, error) {
	return m.meter.Snapshot(m.eng.Now())
}

// Transmitting reports whether a transmission is in progress.
func (m *Modem) Transmitting() bool { return m.transmitting }

// Down reports whether the modem is down (fault-injected crash or
// outage).
func (m *Modem) Down() bool { return m.down }

// SetDown switches the modem between down and operational. While down
// the modem cannot start a transmission (Transmit returns ErrDown),
// never decodes arriving signals — including ones already in the air,
// which a dying receiver loses silently — and meters the sleep power
// draw. Bringing the modem back up restores idle listening; signals
// already arriving stay undecodable because the modem missed their
// synchronization preamble.
func (m *Modem) SetDown(down bool) {
	if m.down == down {
		return
	}
	m.down = down
	if down {
		for _, a := range m.arrivals {
			a.decodable = false
		}
		// An in-flight transmission is allowed to finish clocking out:
		// its energy is already committed to the channel, and cutting
		// the OnTxDone callback would wedge the MAC state machine the
		// fault layer is trying to exercise, not break.
	}
	m.updateEnergyState()
}

// Receiving reports whether any decodable signal is currently arriving.
func (m *Modem) Receiving() bool {
	for _, a := range m.arrivals {
		if a.decodable {
			return true
		}
	}
	return false
}

// CarrierSensed reports whether any signal energy (decodable or not) is
// on the channel at this modem.
func (m *Modem) CarrierSensed() bool { return len(m.arrivals) > 0 || m.transmitting }

// Transmit clocks out f. The frame's on-air time follows from its size
// and the model's bit rate. Returns ErrBusy if a transmission is in
// progress. Transmitting corrupts every arrival currently in the air at
// this modem (half-duplex).
func (m *Modem) Transmit(f *packet.Frame) error {
	if m.down {
		return fmt.Errorf("%w: %v", ErrDown, f)
	}
	if m.transmitting {
		return fmt.Errorf("%w: %v while sending %v", ErrBusy, f, m.txFrame)
	}
	if err := f.Validate(); err != nil {
		return fmt.Errorf("phy: transmit: %w", err)
	}
	dur := f.TxDuration(m.model.BitRate())
	m.transmitting = true
	m.txFrame = f
	for _, a := range m.arrivals {
		a.corruptTx = true
	}
	m.accountTx(f)
	m.updateEnergyState()
	obs.TxBegin{Node: m.id, Frame: f, Dur: dur}.Emit(m.rec, m.eng.Now())
	// finishTx is scheduled even when the medium rejects the frame: the
	// transmitter already committed its on-air time and energy, and the
	// modem must return to idle rather than stay wedged in tx state.
	err := m.medium.Broadcast(m.id, f, dur)
	m.eng.ScheduleIn(dur, sim.PriorityPHY, func() { m.finishTx(f) })
	if err != nil {
		return fmt.Errorf("phy: transmit: %w", err)
	}
	return nil
}

func (m *Modem) finishTx(f *packet.Frame) {
	m.transmitting = false
	m.txFrame = nil
	m.updateEnergyState()
	if m.listener != nil {
		m.listener.OnTxDone(f)
	}
}

func (m *Modem) accountTx(f *packet.Frame) {
	bits := uint64(f.Bits())
	m.stats.FramesTx++
	m.stats.BitsTx += bits
	pig := uint64(len(f.Neighbors) * packet.NeighborInfoBits)
	m.stats.PiggybackBitsTx += pig
	if f.Kind.IsControl() {
		m.stats.ControlBitsTx += bits
	} else {
		m.stats.DataBitsTx += bits
	}
	if f.Kind.IsExtra() {
		m.stats.ExtraFramesTx++
	}
}

// BeginArrival is called by the medium when signal energy from frame f
// starts arriving at this modem. levelDB is the received level; dur is
// the on-air duration; syncable reports whether the source is within
// nominal communication range (signals from farther away contribute
// interference but are never decoded). The modem schedules its own
// end-of-arrival processing.
func (m *Modem) BeginArrival(f *packet.Frame, levelDB float64, dur time.Duration, syncable bool) {
	a := m.StartArrival(f, levelDB, acoustic.DBToLin(levelDB), syncable)
	m.eng.ScheduleIn(dur, sim.PriorityPHY, func() { m.EndArrival(a) })
}

// StartArrival is BeginArrival for a medium that schedules the end
// itself: levelLin must equal acoustic.DBToLin(levelDB), and the medium
// must pass the returned record to EndArrival exactly once, one on-air
// duration later, where BeginArrival's own end event would have run.
// The record belongs to the modem again after EndArrival.
func (m *Modem) StartArrival(f *packet.Frame, levelDB, levelLin float64, syncable bool) *Arrival {
	a := m.newArrival()
	a.frame = f
	a.levelDB = levelDB
	a.levelLin = levelLin
	a.corruptTx = m.transmitting
	// levelDB - noiseDB is bit-identical to SINRDBFromLin(levelDB, 0).
	a.decodable = syncable && !m.down && m.model.Decodable(levelDB-m.noiseDB)
	m.arrivals = append(m.arrivals, a)
	m.refreshInterference()
	m.updateEnergyState()
	return a
}

// newArrival takes a zeroed record from the free list, or mints one.
func (m *Modem) newArrival() *Arrival {
	if n := len(m.freeArr); n > 0 {
		a := m.freeArr[n-1]
		m.freeArr = m.freeArr[:n-1]
		return a
	}
	return new(Arrival)
}

// InjectInterference adds raw noise energy at this modem for dur: an
// arrival with no frame behind it that is never decodable but degrades
// the SINR of everything concurrently in the air (bursty biological or
// shipping noise, injected by the fault layer). The energy also shows
// up on carrier sense, so backoff logic reacts to it like any other
// busy-channel episode.
func (m *Modem) InjectInterference(levelDB float64, dur time.Duration) {
	a := m.newArrival()
	a.levelDB = levelDB
	a.levelLin = acoustic.DBToLin(levelDB)
	m.arrivals = append(m.arrivals, a)
	m.refreshInterference()
	m.updateEnergyState()
	m.eng.ScheduleIn(dur, sim.PriorityPHY, func() { m.EndArrival(a) })
}

// refreshInterference recomputes, for every active arrival, the total
// power of the other active arrivals, and folds it into each arrival's
// running maximum. Interference peaks only when an arrival starts, so
// calling this from BeginArrival captures every arrival's worst case.
func (m *Modem) refreshInterference() {
	var total float64
	for _, a := range m.arrivals {
		total += a.levelLin
	}
	for _, a := range m.arrivals {
		other := total - a.levelLin
		if other > a.maxOtherLin {
			a.maxOtherLin = other
		}
	}
}

// EndArrival finishes a record from StartArrival: the signal leaves
// the air, and a decodable frame is delivered or reported lost. The
// record goes back to the modem's free list.
func (m *Modem) EndArrival(a *Arrival) {
	for i, b := range m.arrivals {
		if b == a {
			m.arrivals = append(m.arrivals[:i], m.arrivals[i+1:]...)
			break
		}
	}
	m.updateEnergyState()
	// Everything below reads the copy: the listener may start arrivals
	// that reuse the record.
	r := *a
	*a = Arrival{}
	m.freeArr = append(m.freeArr, a)

	if !r.decodable {
		// Pure interference energy: a real modem never synchronizes to
		// it, so nothing is reported.
		return
	}
	if r.corruptTx {
		m.stats.TxSelfLoss++
		m.notifyLost(r.frame, LossTxDuringRx)
		return
	}
	// The same formula as acoustic.Model.SINRDBFromLin, on the cached floor.
	sinr := r.levelDB - acoustic.LinToDB(m.noiseLin+r.maxOtherLin)
	perr := m.per.PER(sinr, r.frame.Bits())
	if perr > 0 && (perr >= 1 || m.rng.Float64() < perr) {
		if r.maxOtherLin > 0 {
			m.stats.Collisions++
			m.notifyLost(r.frame, LossCollision)
		} else {
			m.stats.PERLosses++
			m.notifyLost(r.frame, LossChannel)
		}
		return
	}
	m.stats.FramesRx++
	m.stats.BitsRx += uint64(r.frame.Bits())
	obs.FrameRx{Node: m.id, Frame: r.frame}.Emit(m.rec, m.eng.Now())
	if m.listener != nil {
		m.listener.OnFrameReceived(r.frame)
	}
}

func (m *Modem) notifyLost(f *packet.Frame, r LossReason) {
	obs.FrameLoss{
		Node: m.id, Frame: f, ReasonCode: uint8(r), Reason: r.String(),
	}.Emit(m.rec, m.eng.Now())
	if m.listener != nil {
		m.listener.OnFrameLost(f, r)
	}
}

func (m *Modem) updateEnergyState() {
	state := energy.StateIdle
	switch {
	case m.transmitting:
		state = energy.StateTx
	case m.down:
		state = energy.StateSleep
	case m.Receiving():
		state = energy.StateRx
	}
	if err := m.meter.SetState(m.eng.Now(), state); err != nil {
		// Time never goes backwards inside one engine; this is a bug.
		panic(err)
	}
}
