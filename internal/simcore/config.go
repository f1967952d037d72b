package simcore

// Table 2 fixes these for every run: 16-phit packets, 1-cycle links, and a
// 16-packet injection queue per terminal (packets generated while it is
// full are counted as dropped at the source: offered but not accepted).
const (
	packetLength   = 16
	linkLatency    = 1
	sourceQueueCap = 16
)

// Config carries the settable Table 2 simulation parameters shared by every
// network class. It is the single defaulting path for the engine: both
// simnet front ends (folded Clos and RRN) pass it through, so both classes
// run under byte-identical switch and link models.
type Config struct {
	// VCs is the number of virtual channels per link (Table 2: 4).
	VCs int
	// BufferPackets is the per-VC input buffer capacity in packets
	// (Table 2: 4).
	BufferPackets int
	// WarmupCycles precede the measurement window.
	WarmupCycles int
	// MeasureCycles is the statistics window (Table 2: 10,000).
	MeasureCycles int
	// RequestRefresh is how many cycles a blocked head packet keeps its
	// randomly chosen output request before re-randomizing it. 1
	// re-randomizes every cycle as INSEE does; larger values trade a
	// little adaptivity for speed. Routers whose hop choice must be
	// re-drawn every cycle (the direct-network minimal router) pin this
	// to 1.
	RequestRefresh int
	// HashRouting selects the deterministic D-mod-K-style ECMP policy:
	// every hop choice is keyed by the packet's (src, dst) flow hash
	// instead of re-randomised per cycle (the Table 2 "up/down random"
	// request mode, the default). Deterministic hashing pins each flow to
	// one path, which concentrates collisions — the ablation quantifies
	// the cost. Interpreted by the Router; the up/down adapter honours it.
	HashRouting bool
	// InfiniteSink, when true, removes the one-phit-per-cycle ejection
	// bandwidth limit at each terminal: packets reaching their destination
	// switch are consumed immediately regardless of how many arrive at
	// once. The default (false) models a NIC that drains one phit per
	// cycle, symmetric with injection.
	InfiniteSink bool
	// Seed makes the whole simulation reproducible.
	Seed uint64
}

// DefaultConfig returns the Table 2 parameters with a 2,000-cycle warm-up.
func DefaultConfig() Config {
	return Config{
		VCs:            4,
		BufferPackets:  4,
		WarmupCycles:   2000,
		MeasureCycles:  10000,
		RequestRefresh: 4,
		Seed:           1,
	}
}

// WithDefaults fills zero fields with Table 2 defaults so a partially
// specified Config is usable. Both network-class front ends defer to it, so
// their defaults cannot drift apart.
func (c Config) WithDefaults() Config {
	d := DefaultConfig()
	if c.VCs <= 0 {
		c.VCs = d.VCs
	}
	if c.BufferPackets <= 0 {
		c.BufferPackets = d.BufferPackets
	}
	if c.WarmupCycles <= 0 {
		c.WarmupCycles = d.WarmupCycles
	}
	if c.MeasureCycles <= 0 {
		c.MeasureCycles = d.MeasureCycles
	}
	if c.RequestRefresh <= 0 {
		c.RequestRefresh = d.RequestRefresh
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	return c
}

// Result reports one simulation run.
type Result struct {
	// OfferedLoad is the configured generation rate in phits per terminal
	// per cycle (1.0 = every terminal generates one phit per cycle).
	OfferedLoad float64
	// AcceptedLoad is the delivered rate in phits per terminal per cycle
	// during the measurement window.
	AcceptedLoad float64
	// AvgLatency is the mean generation-to-tail-delivery latency in cycles
	// of packets delivered inside the window.
	AvgLatency float64
	// P50Latency and P95Latency are bucket-resolution upper estimates of
	// the median and 95th-percentile latencies.
	P50Latency float64
	P95Latency float64
	// P99Latency is a bucket-resolution upper estimate of the 99th
	// percentile latency.
	P99Latency float64
	// MaxLatency is the largest observed latency in the window.
	MaxLatency float64

	Generated       int // packets generated in the window
	Delivered       int // packets delivered in the window
	DroppedAtSource int // generation attempts rejected by a full source queue (window)
	UnroutableDrops int // packets whose pair has no route (window)
	MeasuredCycles  int

	// Conservation counters over the entire run (warm-up included), used
	// by invariant tests: everything generated is eventually delivered,
	// still queued at a source, in flight, or was dropped.
	TotalGenerated  int
	TotalDelivered  int
	TotalDropped    int
	TotalUnroutable int
	InFlightAtEnd   int
	InSourceAtEnd   int
	// Stalled reports the watchdog's verdict: packets were in the network
	// but deliveries ceased for the last quarter of the run (or never
	// happened) — impossible under a correct deadlock-free routing policy
	// and a strong canary in fault experiments.
	Stalled bool
}
