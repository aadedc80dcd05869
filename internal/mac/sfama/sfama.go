// Package sfama implements Slotted FAMA (Molins & Stojanovic, OCEANS
// 2006), the conservative baseline of the paper's evaluation. Time is
// divided into slots of length τmax + ω; every RTS, CTS, Data, and Ack
// is sent at a slot boundary; any node that overhears a negotiation
// frame not addressed to it defers for the full predicted duration of
// that exchange. Each transmission therefore reserves the worst-case
// propagation delay, which is exactly why its bandwidth utilization is
// poor — the property EW-MAC exploits.
package sfama

import (
	"ewmac/internal/mac"
)

// MAC is the Slotted FAMA protocol: the shared engine with the default
// hooks. A receiver answers the first RTS it decoded in the slot, and
// control frames carry no neighbor state — the zero-overhead baseline
// of Figure 10. The defer behaviour lives in the base ledger.
type MAC struct {
	*mac.Base
	mac.DefaultHooks
}

var _ mac.Protocol = (*MAC)(nil)

// New builds an S-FAMA node over the shared base engine.
func New(cfg mac.Config) (*MAC, error) {
	cfg.LenientGrant = false
	base, err := mac.NewBase(cfg)
	if err != nil {
		return nil, err
	}
	m := &MAC{Base: base}
	base.SetHooks(m)
	return m, nil
}

// Name implements mac.Protocol.
func (m *MAC) Name() string { return "S-FAMA" }
