package main

import (
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"ewmac"
	"ewmac/internal/acoustic"
	"ewmac/internal/channel"
	"ewmac/internal/energy"
	"ewmac/internal/obs"
	"ewmac/internal/oracle"
	"ewmac/internal/packet"
	"ewmac/internal/phy"
	"ewmac/internal/sim"
	"ewmac/internal/vec"
)

// The drivers split engine.residual_s and the obs/oracle spans, which
// decorators cannot: each calls one public layer function in a loop at
// a shape taken from a traced run, and reports host ns and heap
// allocations per operation. The shapes are fixed constants, so the
// drivers read the same on every workload and seed.
const (
	// heapDepth is scale-500's engine.pending_peak at seed 1.
	heapDepth = 26316
	// arrivalOverlap is verify-200's phy.overlap at seed 1: the mean
	// number of arrivals in the air at one modem.
	arrivalOverlap = 0.33
	// driverTime bounds each driver's timed loop.
	driverTime = 300 * time.Millisecond
	// captureEvents bounds the obs stream recorded for the oracle and
	// JSONL drivers.
	captureEvents = 200_000
)

// driverResult is one driver's per-operation cost.
type driverResult struct {
	ns, allocs float64
}

// timeOps calls op until driverTime has elapsed and returns the cost
// per operation. Each call of op must run exactly batch operations.
func timeOps(batch int, op func()) driverResult {
	op() // warm caches and grow buffers before timing
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	rounds := 0
	for rounds == 0 || time.Since(start) < driverTime {
		rounds++
		op()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	ops := float64(rounds * batch)
	return driverResult{
		ns:     float64(elapsed.Nanoseconds()) / ops,
		allocs: float64(after.Mallocs-before.Mallocs) / ops,
	}
}

// driveHeap is the hold model on the event queue: heapDepth events
// pending, and each executed event schedules one successor at a uniform
// delay, so every op is one pop plus one push at constant depth.
func driveHeap() driverResult {
	const batch = 100_000
	eng := sim.NewEngine(1)
	rng := rand.New(rand.NewSource(1))
	left := 0
	var fn func()
	fn = func() {
		eng.ScheduleIn(time.Duration(rng.Int63n(int64(time.Second))), sim.PriorityMAC, fn)
		if left--; left == 0 {
			eng.Stop()
		}
	}
	for i := 0; i < heapDepth; i++ {
		eng.ScheduleIn(time.Duration(rng.Int63n(int64(time.Second))), sim.PriorityMAC, fn)
	}
	return timeOps(batch, func() {
		left = batch
		eng.Run()
	})
}

type nullMedium struct{}

func (nullMedium) Broadcast(packet.NodeID, *packet.Frame, time.Duration) error { return nil }

type nullListener struct{}

func (nullListener) OnFrameReceived(*packet.Frame)             {}
func (nullListener) OnFrameLost(*packet.Frame, phy.LossReason) {}
func (nullListener) OnTxDone(*packet.Frame)                    {}

// driveArrival feeds one modem a Poisson stream of data-frame arrivals
// whose mean overlap is arrivalOverlap, with received levels from
// senders spread over the interference range. One op is BeginArrival
// through the scheduled end of that arrival (SINR, PER and energy
// accounting).
func driveArrival() driverResult {
	const batch = 10_000
	model := acoustic.DefaultModel()
	eng := sim.NewEngine(1)
	m, err := phy.NewModem(phy.Config{
		ID: 1, Engine: eng, Model: model, Medium: nullMedium{}, Energy: energy.DefaultProfile(),
	})
	if err != nil {
		panic(err)
	}
	m.SetListener(nullListener{})
	rng := rand.New(rand.NewSource(1))
	frame := &packet.Frame{Kind: packet.KindData, Src: 2, Dst: 1, DataBits: 2048}
	dur := frame.TxDuration(model.BitRate())
	levels := make([]float64, 1024)
	syncable := make([]bool, len(levels))
	for i := range levels {
		d := 50 + rng.Float64()*(model.MaxRangeM*channel.InterferenceRangeFactor-50)
		levels[i] = model.ReceivedLevelDB(vec.V3{}, vec.V3{X: d})
		syncable[i] = d <= model.MaxRangeM
	}
	meanGap := float64(dur) / arrivalOverlap
	at := eng.Now()
	k := 0
	return timeOps(batch, func() {
		for i := 0; i < batch; i++ {
			at = at.Add(time.Duration(rng.ExpFloat64() * meanGap))
			eng.RunUntil(at)
			j := k % len(levels)
			m.BeginArrival(frame, levels[j], dur, syncable[j])
			k++
		}
	})
}

var sinrSink float64

// driveSINR times the SINR the PHY computes at every arrival end.
func driveSINR() driverResult {
	const batch = 100_000
	model := acoustic.DefaultModel()
	rng := rand.New(rand.NewSource(1))
	sig := make([]float64, 1024)
	intf := make([]float64, len(sig))
	for i := range sig {
		sig[i] = 60 + 40*rng.Float64()
		if rng.Intn(4) == 0 {
			intf[i] = acoustic.DBToLin(50 + 40*rng.Float64())
		}
	}
	return timeOps(batch, func() {
		var acc float64
		for i := 0; i < batch; i++ {
			j := i & (len(sig) - 1)
			acc += model.SINRDBFromLin(sig[j], intf[j])
		}
		sinrSink += acc
	})
}

// recorded is one captured obs event.
type recorded struct {
	at sim.Time
	e  obs.Event
}

// captureStream records the first captureEvents obs events of a short
// verify-200-shaped run (200 static sensors, 2 km, 2 kbps). Events are
// pooled and reclaimed when Record returns, so each one is copied.
func captureStream() ([]recorded, error) {
	cfg := ewmac.DefaultConfig(ewmac.EWMAC)
	cfg.Nodes = 200
	cfg.RegionSide = 2000
	cfg.MobileFraction = 0
	cfg.OfferedLoadKbps = 2
	cfg.SimTime = 120 * time.Second
	out := make([]recorded, 0, captureEvents)
	cfg.Observe = &ewmac.Observe{Recorder: obs.RecorderFunc(func(at sim.Time, e obs.Event) {
		if len(out) == captureEvents {
			return
		}
		v := reflect.ValueOf(e)
		if v.Kind() == reflect.Pointer {
			c := reflect.New(v.Elem().Type())
			c.Elem().Set(v.Elem())
			e = c.Interface().(obs.Event)
		}
		out = append(out, recorded{at: at, e: e})
	})}
	_, err := ewmac.Run(cfg)
	return out, err
}

// driveOracle replays the captured stream into a fresh streaming
// verifier; one op is one Record call.
func driveOracle(stream []recorded) driverResult {
	model := acoustic.DefaultModel()
	horizon := time.Duration(float64(model.MaxDelay()) * channel.InterferenceRangeFactor)
	return timeOps(len(stream), func() {
		v := oracle.NewStreaming(model.BitRate(), model.SINRThresholdDB, horizon)
		for _, r := range stream {
			v.Record(r.at, r.e)
		}
	})
}

// driveJSONL replays the captured stream into the trace-v2 exporter
// writing to io.Discard; one op is one Record call.
func driveJSONL(stream []recorded) driverResult {
	return timeOps(len(stream), func() {
		j := obs.NewJSONL(io.Discard)
		for _, r := range stream {
			j.Record(r.at, r.e)
		}
		if err := j.Close(); err != nil {
			panic(err)
		}
	})
}

// runDrivers runs every driver and returns its metrics.
func runDrivers() (map[string]metric, error) {
	stream, err := captureStream()
	if err != nil {
		return nil, err
	}
	out := map[string]metric{}
	add := func(name string, r driverResult) {
		out["drv."+name+"_ns"] = metric{r.ns, "ns"}
		out["drv."+name+"_allocs"] = metric{r.allocs, "allocs/op"}
	}
	add("heap", driveHeap())
	add("phy_arrival", driveArrival())
	add("sinr", driveSINR())
	add("oracle", driveOracle(stream))
	add("jsonl", driveJSONL(stream))
	return out, nil
}
