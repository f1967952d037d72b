package routing

import "rfclos/internal/topology"

// RebuildStream, NewRebuildStream, LevelSealed and Finish are kept only
// because perfbench's replay_query.go still compiles against them. Routing
// state is built once over the finished topology, by New. These names are
// deleted together with that harness's move to topology.NewXGFT and New
// (ROADMAP item 7).

// RebuildStream is the retired streaming cover builder. It holds no state.
type RebuildStream struct{}

// NewRebuildStream returns a RebuildStream.
func NewRebuildStream() *RebuildStream { return &RebuildStream{} }

// LevelSealed does nothing; it keeps RebuildStream a topology.LevelSink.
func (*RebuildStream) LevelSealed(*topology.Clos, int) {}

// Finish is New(c).
func (*RebuildStream) Finish(c *topology.Clos) *UpDown { return New(c) }
