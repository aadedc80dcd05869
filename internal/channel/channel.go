// Package channel connects modems through the acoustic environment: it
// is the broadcast medium. For every transmission it computes, per
// receiver, the propagation delay and received level from the current
// geometry, then schedules the arrival at that receiver's modem. All of
// a transmission's arrivals ride one engine wave (see flight.go).
//
// Delay and level are sampled at emission time. For moving nodes this
// means the channel always uses true current geometry while the MAC
// layer works from its learned delay tables — so staleness in the
// protocol's knowledge (a failure mode the paper discusses in §5) is
// faithfully represented rather than assumed away.
package channel

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"ewmac/internal/acoustic"
	"ewmac/internal/obs"
	"ewmac/internal/packet"
	"ewmac/internal/phy"
	"ewmac/internal/sim"
	"ewmac/internal/topology"
)

// InterferenceRangeFactor scales the nominal communication range to the
// distance at which a transmission still contributes interference. At
// 2× the nominal range the received level is ~15 dB below the edge of
// the communication range (practical spreading), small enough to ignore
// beyond it but large enough to matter within.
const InterferenceRangeFactor = 2.0

// path is one signal path from a source to a receiver: the direct ray,
// or its surface-bounced echo. It holds everything an arrival needs,
// so the hot path does zero trigonometry while the topology is static.
type path struct {
	rx       *phy.Modem
	delay    time.Duration
	levelDB  float64
	levelLin float64 // acoustic.DBToLin(levelDB), computed once per build
	syncable bool
	echo     bool // the surface copy of the direct ray before it
}

// srcGeoms is the cached geometry for one source, stamped with the
// topology epoch and modem-registration generation it was built under.
//
// paths is in scheduling order: receivers in node-ID order, each direct
// ray just before its echo. A path's index there is its offset in the
// seq block Broadcast reserves. order lists the paths in the order
// their arrivals run, (delay, index), each entry packing the delay
// above the index; index(k) recovers the index.
type srcGeoms struct {
	epoch     uint64
	gen       uint64
	built     bool
	receivers int
	paths     []path
	order     []uint64
	mask      uint64
}

// index returns the path index packed into order entry k.
func (g *srcGeoms) index(k uint64) uint64 { return k & g.mask }

// Channel is the shared acoustic medium.
type Channel struct {
	eng    *sim.Engine
	net    *topology.Network
	modems []*phy.Modem // indexed by NodeID-1; nil until registered
	rec    obs.Recorder

	// geo caches per-source receiver geometry, indexed by NodeID-1. An
	// entry is valid while the topology epoch and registration
	// generation it was built under are both current; Broadcast rebuilds
	// it lazily (reusing the slice) otherwise.
	geo      []srcGeoms
	regGen   uint64 // bumped by Register; invalidates every cache entry
	cacheOff bool
	scratch  srcGeoms // reused build target when the cache is disabled

	// flights is the pool of finished transmissions' waves.
	flights []*flight
	// onStart, set only by tests, sees every arrival as it starts.
	onStart func(*hop)

	cacheHits   uint64
	cacheMisses uint64

	// Deliveries counts scheduled frame arrivals (per receiver).
	deliveries uint64
	// droppedUnknown counts broadcasts rejected because the source has
	// no node in the topology.
	droppedUnknown uint64
}

// ErrUnknownSource is returned by Broadcast when the transmitting node
// is not part of the deployed topology. The transmission is dropped and
// counted rather than crashing the run: a mis-wired harness should
// surface as an observable error, not a panic inside the event loop.
var ErrUnknownSource = errors.New("channel: broadcast from unknown source")

var _ phy.Medium = (*Channel)(nil)

// New returns an empty channel over the given deployed network.
func New(eng *sim.Engine, net *topology.Network) (*Channel, error) {
	if eng == nil {
		return nil, errors.New("channel: nil engine")
	}
	if net == nil {
		return nil, errors.New("channel: nil network")
	}
	return &Channel{
		eng:    eng,
		net:    net,
		modems: make([]*phy.Modem, net.Len()),
		geo:    make([]srcGeoms, net.Len()),
	}, nil
}

// Register attaches a modem. Every node in the topology must have
// exactly one registered modem before traffic starts.
func (c *Channel) Register(m *phy.Modem) error {
	if m == nil {
		return errors.New("channel: nil modem")
	}
	if c.net.Node(m.ID()) == nil {
		return fmt.Errorf("channel: modem %v has no node in topology", m.ID())
	}
	if c.modems[m.ID()-1] != nil {
		return fmt.Errorf("channel: duplicate modem for %v", m.ID())
	}
	c.modems[m.ID()-1] = m
	c.regGen++
	return nil
}

// SetCacheEnabled force-disables (or re-enables) the geometry cache.
// With the cache off every broadcast recomputes pairwise geometry from
// scratch — the reference path the determinism tests compare against.
func (c *Channel) SetCacheEnabled(on bool) { c.cacheOff = !on }

// CacheStats reports geometry-cache hits and misses (rebuilds).
func (c *Channel) CacheStats() (hits, misses uint64) {
	return c.cacheHits, c.cacheMisses
}

// SetRecorder installs the observability event sink (nil to disable).
// Every scheduled delivery is recorded as an obs.FrameEmit at emission
// time.
func (c *Channel) SetRecorder(r obs.Recorder) { c.rec = r }

// Deliveries reports how many frame arrivals have been scheduled.
func (c *Channel) Deliveries() uint64 { return c.deliveries }

// DroppedUnknown reports how many broadcasts were dropped because their
// source was not in the topology.
func (c *Channel) DroppedUnknown() uint64 { return c.droppedUnknown }

// buildGeoms recomputes g (reusing its slices) for srcNode. Receivers
// are taken in node-ID order: arrivals scheduled for the same instant
// execute in scheduling order, so that order must be deterministic
// across runs.
func (c *Channel) buildGeoms(srcNode *topology.Node, g *srcGeoms) {
	model := c.net.Model
	maxDist := model.MaxRangeM * InterferenceRangeFactor
	g.receivers = 0
	ps := g.paths[:0]
	for i, dstNode := range c.net.Nodes() {
		rx := c.modems[i]
		if dstNode.ID == srcNode.ID || rx == nil {
			continue
		}
		dist := srcNode.Pos.Dist(dstNode.Pos)
		if dist > maxDist {
			continue
		}
		delay := model.Delay(srcNode.Pos, dstNode.Pos)
		level := model.ReceivedLevelDB(srcNode.Pos, dstNode.Pos)
		g.receivers++
		ps = append(ps, path{
			rx: rx, delay: delay, levelDB: level, levelLin: acoustic.DBToLin(level),
			// Beyond the nominal communication range (Table 2: 1.5 km)
			// the modem never synchronizes to the signal, but its energy
			// still interferes at full physical strength.
			syncable: dist <= model.MaxRangeM,
		})
		if model.SurfaceReflection {
			// Two-ray extension: the surface-bounced copy arrives later
			// and weaker, as pure interference (a real modem stays
			// locked to the direct ray).
			rDelay, rLevel := model.SurfacePath(srcNode.Pos, dstNode.Pos)
			if rDelay > delay {
				ps = append(ps, path{
					rx: rx, delay: rDelay, levelDB: rLevel, levelLin: acoustic.DBToLin(rLevel),
					echo: true,
				})
			}
		}
	}
	g.paths = ps
	g.sortOrder()
}

// sortOrder sorts g.order by (delay, index). Sorting the packed keys is
// several times faster than sorting the paths through a comparator.
func (g *srcGeoms) sortOrder() {
	shift := bits.Len(uint(len(g.paths)))
	g.mask = 1<<shift - 1
	g.order = g.order[:0]
	packed := true
	for i := range g.paths {
		d := uint64(g.paths[i].delay)
		packed = packed && d>>(63-shift) == 0
		g.order = append(g.order, d<<shift|uint64(i))
	}
	if packed {
		slices.Sort(g.order)
		return
	}
	// A delay of months does not fit above the index: keep bare
	// indices and compare the paths instead.
	for i := range g.order {
		g.order[i] = uint64(i)
	}
	slices.SortFunc(g.order, func(a, b uint64) int {
		return cmp.Or(cmp.Compare(g.paths[a].delay, g.paths[b].delay), cmp.Compare(a, b))
	})
}

// geomsFor returns the geometry for src, from cache when the topology
// epoch and modem registrations are unchanged since it was built. The
// result is owned by the channel and only valid until the next
// Broadcast.
func (c *Channel) geomsFor(src packet.NodeID, srcNode *topology.Node) *srcGeoms {
	if c.cacheOff {
		c.buildGeoms(srcNode, &c.scratch)
		return &c.scratch
	}
	sg := &c.geo[int(src)-1]
	if sg.built && sg.epoch == c.net.Epoch() && sg.gen == c.regGen {
		c.cacheHits++
		return sg
	}
	c.cacheMisses++
	c.buildGeoms(srcNode, sg)
	sg.epoch = c.net.Epoch()
	sg.gen = c.regGen
	sg.built = true
	return sg
}

// Broadcast implements phy.Medium: it fans f out to every other modem
// within interference range, with per-pair delay and received level
// computed from the current node positions (cached while the topology
// is static). All receivers share one copy-on-write view of the frame
// instead of a deep clone each.
func (c *Channel) Broadcast(src packet.NodeID, f *packet.Frame, dur time.Duration) error {
	srcNode := c.net.Node(src)
	if srcNode == nil {
		c.droppedUnknown++
		obs.Invariant{
			Node:   src,
			Check:  "channel.broadcast.src",
			Detail: "transmission from node outside topology dropped",
		}.Emit(c.rec, c.eng.Now())
		return fmt.Errorf("%w: %v", ErrUnknownSource, src)
	}
	g := c.geomsFor(src, srcNode)
	if g.receivers == 0 {
		return nil
	}
	if c.rec != nil {
		now := c.eng.Now()
		for i := range g.paths {
			if p := &g.paths[i]; !p.echo {
				obs.FrameEmit{
					Src: src, Dst: p.rx.ID(), Frame: f, Delay: p.delay, LevelDB: p.levelDB,
				}.Emit(c.rec, now)
			}
		}
	}
	c.deliveries += uint64(g.receivers)
	c.launch(f.Share(), dur, g)
	return nil
}

// Modem returns the registered modem for id, or nil.
func (c *Channel) Modem(id packet.NodeID) *phy.Modem {
	if id < 1 || int(id) > len(c.modems) {
		return nil
	}
	return c.modems[id-1]
}
