// Package simnet simulates folded-Clos (indirect) networks under the INSEE
// configuration of Table 2: 4 virtual channels, 4-packet buffers per VC,
// 16-phit packets, 1-cycle links, random output arbitration with one
// iteration per cycle, shortest injection and random up/down request
// routing, a warm-up phase followed by a measured window.
//
// It is a thin adapter over the unified cycle engine (internal/simcore),
// which owns the entire virtual cut-through machinery; this package
// contributes only the topology wiring (up ports before down ports at every
// switch) and the up/down routing policy. Up/down routing needs no VCs for
// deadlock freedom; the 4 VCs reduce head-of-line blocking exactly as in
// the paper.
package simnet

import (
	"rfclos/internal/routing"
	"rfclos/internal/simcore"
	"rfclos/internal/topology"
	"rfclos/internal/traffic"
)

// Config carries the Table 2 simulation parameters (shared engine type).
type Config = simcore.Config

// Result reports one simulation run (shared engine type).
type Result = simcore.Result

// DefaultConfig returns the Table 2 parameters with a 2,000-cycle warm-up.
func DefaultConfig() Config { return simcore.DefaultConfig() }

// Sim simulates one folded Clos network under one traffic pattern.
type Sim struct {
	eng *simcore.Engine
}

// New builds a simulator over the given (possibly faulted) topology, its
// routing state and a traffic pattern. The Config's zero fields take Table
// 2 defaults.
func New(c *topology.Clos, ud *routing.UpDown, pat traffic.Pattern, cfg Config) *Sim {
	spec := simcore.Spec{
		Switches:  c.NumSwitches(),
		Ports:     make([][]int32, c.NumSwitches()),
		Terminals: c.Terminals(),
		TermsPer:  c.TermsPerLeaf,
	}
	for sw := int32(0); sw < int32(spec.Switches); sw++ {
		ups, downs := c.Up(sw), c.Down(sw)
		ports := make([]int32, 0, len(ups)+len(downs))
		ports = append(ports, ups...)
		ports = append(ports, downs...)
		spec.Ports[sw] = ports
	}
	r := UpDownRouter(c, ud, cfg.HashRouting)
	return &Sim{eng: simcore.New(spec, r, pat, cfg)}
}

// Run simulates warm-up plus the measurement window at the given offered
// load (phits per terminal per cycle) and returns the measured Result. A
// Sim must not be reused after Run.
func (s *Sim) Run(load float64) Result { return s.eng.Run(load) }
