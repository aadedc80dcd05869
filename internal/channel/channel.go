// Package channel connects modems through the acoustic environment: it
// is the broadcast medium. For every transmission it computes, per
// receiver, the propagation delay and received level from the current
// geometry, then schedules the arrival at that receiver's modem.
//
// Delay and level are sampled at emission time. For moving nodes this
// means the channel always uses true current geometry while the MAC
// layer works from its learned delay tables — so staleness in the
// protocol's knowledge (a failure mode the paper discusses in §5) is
// faithfully represented rather than assumed away.
package channel

import (
	"errors"
	"fmt"
	"time"

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

// rxGeom is one precomputed receiver entry of a source's geometry list:
// everything Broadcast needs per in-interference-range neighbor, so the
// hot path does zero trigonometry while the topology is static.
type rxGeom struct {
	rx        *phy.Modem
	dst       packet.NodeID
	delay     time.Duration
	levelDB   float64
	surfDelay time.Duration
	surfLevel float64
	syncable  bool
	surf      bool
}

// srcGeoms is the cached receiver list for one source, stamped with the
// topology epoch and modem-registration generation it was built under.
type srcGeoms struct {
	epoch uint64
	gen   uint64
	built bool
	list  []rxGeom
}

// Channel is the shared acoustic medium.
type Channel struct {
	eng    *sim.Engine
	net    *topology.Network
	modems map[packet.NodeID]*phy.Modem
	rec    obs.Recorder

	// geo caches per-source receiver geometry, indexed by NodeID-1. An
	// entry is valid while the topology epoch and registration
	// generation it was built under are both current; Broadcast rebuilds
	// it lazily (reusing the slice) otherwise.
	geo      []srcGeoms
	regGen   uint64 // bumped by Register; invalidates every cache entry
	cacheOff bool
	scratch  []rxGeom // reused build target when the cache is disabled

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
		modems: make(map[packet.NodeID]*phy.Modem),
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
	if _, dup := c.modems[m.ID()]; dup {
		return fmt.Errorf("channel: duplicate modem for %v", m.ID())
	}
	c.modems[m.ID()] = m
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

// buildGeoms computes the receiver list for srcNode into out (reused
// between rebuilds), iterating in node-ID order — arrivals scheduled
// for the same instant execute in scheduling order, so the list order
// must be deterministic across runs.
func (c *Channel) buildGeoms(srcNode *topology.Node, out []rxGeom) []rxGeom {
	model := c.net.Model
	maxDist := model.MaxRangeM * InterferenceRangeFactor
	for _, dstNode := range c.net.Nodes() {
		id := dstNode.ID
		if id == srcNode.ID {
			continue
		}
		rx, ok := c.modems[id]
		if !ok {
			continue
		}
		dist := srcNode.Pos.Dist(dstNode.Pos)
		if dist > maxDist {
			continue
		}
		g := rxGeom{
			rx:      rx,
			dst:     id,
			delay:   model.Delay(srcNode.Pos, dstNode.Pos),
			levelDB: model.ReceivedLevelDB(srcNode.Pos, dstNode.Pos),
			// Beyond the nominal communication range (Table 2: 1.5 km)
			// the modem never synchronizes to the signal, but its energy
			// still interferes at full physical strength.
			syncable: dist <= model.MaxRangeM,
		}
		if model.SurfaceReflection {
			// Two-ray extension: the surface-bounced copy arrives later
			// and weaker, as pure interference (a real modem stays
			// locked to the direct ray).
			rDelay, rLevel := model.SurfacePath(srcNode.Pos, dstNode.Pos)
			if rDelay > g.delay {
				g.surf = true
				g.surfDelay = rDelay
				g.surfLevel = rLevel
			}
		}
		out = append(out, g)
	}
	return out
}

// geomsFor returns the receiver list for src, from cache when the
// topology epoch and modem registrations are unchanged since it was
// built. The returned slice is owned by the channel and only valid
// until the next Broadcast.
func (c *Channel) geomsFor(src packet.NodeID, srcNode *topology.Node) []rxGeom {
	if c.cacheOff {
		c.scratch = c.buildGeoms(srcNode, c.scratch[:0])
		return c.scratch
	}
	sg := &c.geo[int(src)-1]
	if sg.built && sg.epoch == c.net.Epoch() && sg.gen == c.regGen {
		c.cacheHits++
		return sg.list
	}
	c.cacheMisses++
	sg.list = c.buildGeoms(srcNode, sg.list[:0])
	sg.epoch = c.net.Epoch()
	sg.gen = c.regGen
	sg.built = true
	return sg.list
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
	geoms := c.geomsFor(src, srcNode)
	if len(geoms) == 0 {
		return nil
	}
	fc := f.Share()
	now := c.eng.Now()
	for i := range geoms {
		g := &geoms[i]
		if c.rec != nil {
			obs.FrameEmit{
				Src: src, Dst: g.dst, Frame: f, Delay: g.delay, LevelDB: g.levelDB,
			}.Emit(c.rec, now)
		}
		c.deliveries++
		// Copy out of the cache entry before capturing: the cache slice
		// may be rebuilt in place before the scheduled closures run.
		rxm, level, syncable := g.rx, g.levelDB, g.syncable
		c.eng.ScheduleIn(g.delay, sim.PriorityPHY, func() {
			rxm.BeginArrival(fc, level, dur, syncable)
		})
		if g.surf {
			sLevel := g.surfLevel
			c.eng.ScheduleIn(g.surfDelay, sim.PriorityPHY, func() {
				rxm.BeginArrival(fc, sLevel, dur, false)
			})
		}
	}
	return nil
}

// Modem returns the registered modem for id, or nil.
func (c *Channel) Modem(id packet.NodeID) *phy.Modem { return c.modems[id] }
