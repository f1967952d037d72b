package topology

// LevelSink and NewXGFTStream are kept only because perfbench's
// replay_query.go still compiles against them. Builders no longer notify
// anyone as they seal level pairs: every builder wires in one pass and
// routing state is built over the finished topology. Both names are deleted
// together with that harness's move to NewXGFT (ROADMAP item 7).

// LevelSink is the retired level-pair observer; nothing calls it.
type LevelSink interface {
	LevelSealed(c *Clos, level int)
}

// NewXGFTStream is NewXGFT; sink is ignored.
func NewXGFTStream(m, w []int, radix int, sink LevelSink) (*Clos, error) {
	return NewXGFT(m, w, radix)
}
