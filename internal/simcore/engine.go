// Package simcore is the unified cycle-driven, packet-granularity virtual
// cut-through engine behind both network-class simulators: the folded-Clos
// up/down simulator (internal/simnet) and the direct-network simulator
// (internal/simdirect). One engine owning the entire switch and link model
// — VC ring buffers, credit flow control, per-port random arbitration with
// one iteration per cycle, the event ring, injection/ejection terminals and
// warm-up/measurement accounting — keeps cross-topology comparisons fair:
// the two network classes differ only in their Router (hop selection and VC
// discipline), never in the machinery that turns routing decisions into
// cycles and queues.
//
// Modelling notes (see DESIGN.md §2 "Substitutions"):
//
//   - Packets, not phits, are the simulated unit. A packet transfer holds
//     its link for PacketLength cycles and its header becomes routable at
//     the next switch after LinkLatency cycles (cut-through), so latency
//     and throughput match a phit-level VCT simulation while running an
//     order of magnitude faster.
//   - Virtual-channel buffer space is tracked as an occupancy count per
//     (channel, VC): a slot is reserved when a packet is dispatched into it
//     and released when the packet's tail leaves it, i.e. credits with
//     zero-latency return, as in functional-mode INSEE.
package simcore

import (
	"math"

	"rfclos/internal/metrics"
	"rfclos/internal/rng"
	"rfclos/internal/traffic"
)

// Spec wires a topology into the engine: the directed channel list is built
// from Ports in switch-major, port-minor order, so channel and queue ids —
// and therefore arbitration scan order and RNG consumption — are a pure
// function of the Spec.
type Spec struct {
	// Switches is the switch count; switch ids are [0, Switches).
	Switches int
	// Ports lists, per switch, the destination switch of every output
	// port, in the port order the Router's Route indices refer to.
	Ports [][]int32
	// Terminals is the compute-node count.
	Terminals int
	// TermsPer is the number of terminals per terminal-bearing switch:
	// terminal t injects at switch t/TermsPer and ejects on local port
	// t%TermsPer after the switch's network ports.
	TermsPer int
}

// Engine holds all mutable simulation state for one run over one wired
// topology (Spec), routing policy (Router) and traffic pattern.
type Engine struct {
	cfg    Config
	router Router
	pat    traffic.Pattern
	rnd    *rng.Rand

	terms    int
	termsPer int

	// Directed channels. Channel i carries packets to chTo[i]; outCh[sw]
	// maps output-port index to channel id.
	chTo     []int32
	chFreeAt []int32
	outCh    [][]int32

	// VC queues, flattened: index ch*VCs+vc.
	qBuf       []int32 // ring storage, stride BufferPackets
	qHead      []uint8
	qLen       []uint8
	vcOccupied []uint8

	// Active-source lists: per switch, the sources (injection terminals
	// and VC queues) that currently hold at least one packet. Entries are
	// appended on enqueue and lazily removed when found empty, so
	// arbitration never scans empty queues.
	activeSrc   [][]int64
	inActiveQ   []bool // per VC queue
	inActiveInj []bool // per terminal

	// Terminal state.
	srcQ      [][]int32
	injFreeAt []int32
	ejFreeAt  []int32
	nextGen   []int32

	// Packet pool.
	pool []Packet
	free []int32

	// Event ring: tail-departure buffer releases and deliveries.
	ringSize  int32
	relBucket [][]int32 // channel-vc codes
	delBucket [][]int32 // packet ids

	// Stats.
	cycle         int32
	measuring     bool
	lat           metrics.Histogram
	generated     int
	delivered     int
	droppedSrc    int
	unroutable    int
	totGenerated  int
	totDelivered  int
	totDropped    int
	totUnroutable int
	inFlight      int
	lastDelivery  int32

	// Arbitration scratch, sized to the max outputs of any switch.
	candCount []int32
	candSrc   []int64
	usedPorts []int32
}

// New builds an engine over the wired topology, routing policy and traffic
// pattern. The Config's zero fields take Table 2 defaults.
func New(spec Spec, router Router, pat traffic.Pattern, cfg Config) *Engine {
	cfg = cfg.WithDefaults()
	e := &Engine{
		cfg:      cfg,
		router:   router,
		pat:      pat,
		rnd:      rng.New(cfg.Seed),
		terms:    spec.Terminals,
		termsPer: spec.TermsPer,
	}
	e.buildChannels(spec)
	e.buildState()
	return e
}

func (e *Engine) buildChannels(spec Spec) {
	e.outCh = make([][]int32, spec.Switches)
	for sw := 0; sw < spec.Switches; sw++ {
		ports := spec.Ports[sw]
		e.outCh[sw] = make([]int32, len(ports))
		for i, to := range ports {
			ch := int32(len(e.chTo))
			e.chTo = append(e.chTo, to)
			e.outCh[sw][i] = ch
		}
	}
	e.chFreeAt = make([]int32, len(e.chTo))
}

func (e *Engine) buildState() {
	cfg := e.cfg
	nvc := len(e.chTo) * cfg.VCs
	e.qBuf = make([]int32, nvc*cfg.BufferPackets)
	e.qHead = make([]uint8, nvc)
	e.qLen = make([]uint8, nvc)
	e.vcOccupied = make([]uint8, nvc)
	e.activeSrc = make([][]int64, len(e.outCh))
	e.inActiveQ = make([]bool, nvc)
	e.inActiveInj = make([]bool, e.terms)

	e.srcQ = make([][]int32, e.terms)
	e.injFreeAt = make([]int32, e.terms)
	e.ejFreeAt = make([]int32, e.terms)
	e.nextGen = make([]int32, e.terms)

	e.ringSize = int32(cfg.PacketLength + cfg.LinkLatency + 2)
	e.relBucket = make([][]int32, e.ringSize)
	e.delBucket = make([][]int32, e.ringSize)

	maxOut := 0
	for sw := range e.outCh {
		if out := len(e.outCh[sw]) + e.termsPer; out > maxOut {
			maxOut = out
		}
	}
	e.candCount = make([]int32, maxOut)
	e.candSrc = make([]int64, maxOut)
	e.usedPorts = make([]int32, 0, maxOut)
}

// Run simulates warm-up plus the measurement window at the given offered
// load (phits per terminal per cycle) and returns the measured Result. An
// Engine must not be reused after Run.
func (e *Engine) Run(load float64) Result {
	if load < 0 {
		load = 0
	}
	p := load / float64(e.cfg.PacketLength) // packet generation probability per cycle
	for t := 0; t < e.terms; t++ {
		e.nextGen[t] = e.drawGap(p)
	}
	e.cycle = 0
	e.advance(int32(e.cfg.WarmupCycles), p)
	e.measuring = true
	e.generated, e.delivered, e.droppedSrc, e.unroutable = 0, 0, 0, 0
	e.lat = metrics.Histogram{}
	e.advance(int32(e.cfg.MeasureCycles), p)
	total := e.cycle
	inSource := 0
	for t := range e.srcQ {
		inSource += len(e.srcQ[t])
	}
	res := Result{
		OfferedLoad:     load,
		AcceptedLoad:    float64(e.delivered*e.cfg.PacketLength) / (float64(e.terms) * float64(e.cfg.MeasureCycles)),
		AvgLatency:      e.lat.Mean(),
		P50Latency:      e.lat.Quantile(0.50),
		P95Latency:      e.lat.Quantile(0.95),
		P99Latency:      e.lat.Quantile(0.99),
		MaxLatency:      e.lat.Max(),
		Generated:       e.generated,
		Delivered:       e.delivered,
		DroppedAtSource: e.droppedSrc,
		UnroutableDrops: e.unroutable,
		MeasuredCycles:  e.cfg.MeasureCycles,
		TotalGenerated:  e.totGenerated,
		TotalDelivered:  e.totDelivered,
		TotalDropped:    e.totDropped,
		TotalUnroutable: e.totUnroutable,
		InFlightAtEnd:   e.inFlight,
		InSourceAtEnd:   inSource,
	}
	// Stall watchdog: packets inside the network but no delivery for the
	// last quarter of the run indicates livelock/deadlock — which a correct
	// deadlock-free routing policy makes impossible.
	inNetwork := e.inFlight - inSource
	quiet := total - e.lastDelivery
	res.Stalled = inNetwork > 0 && quiet > int32(e.cfg.MeasureCycles)/4
	return res
}

// advance simulates n cycles.
func (e *Engine) advance(n int32, p float64) {
	for end := e.cycle + n; e.cycle < end; e.cycle++ {
		e.processEvents()
		e.generate(p)
		e.arbitrate()
	}
}

// drawGap samples the number of cycles until the next packet generation
// (geometric with parameter p, support {1, 2, ...}).
func (e *Engine) drawGap(p float64) int32 {
	if p <= 0 {
		return math.MaxInt32
	}
	if p >= 1 {
		return 1
	}
	u := e.rnd.Float64()
	for u == 0 {
		u = e.rnd.Float64()
	}
	g := int32(math.Log(u)/math.Log(1-p)) + 1
	if g < 1 {
		g = 1
	}
	return g
}

// processEvents applies this cycle's buffer releases and deliveries.
func (e *Engine) processEvents() {
	slot := e.cycle % e.ringSize
	for _, code := range e.relBucket[slot] {
		e.vcOccupied[code]--
	}
	e.relBucket[slot] = e.relBucket[slot][:0]
	for _, pk := range e.delBucket[slot] {
		p := &e.pool[pk]
		e.totDelivered++
		e.inFlight--
		e.lastDelivery = e.cycle
		if e.measuring {
			e.delivered++
			e.lat.Add(int(e.cycle - p.genAt))
		}
		e.free = append(e.free, pk)
	}
	e.delBucket[slot] = e.delBucket[slot][:0]
}

// generate creates new packets at every terminal whose generation timer
// fires this cycle.
func (e *Engine) generate(p float64) {
	if p <= 0 {
		return
	}
	for t := 0; t < e.terms; t++ {
		if e.nextGen[t] > e.cycle {
			continue
		}
		e.nextGen[t] = e.cycle + e.drawGap(p)
		dst := e.pat.Dest(t, e.rnd)
		if dst < 0 {
			continue // silent terminal (odd pairing)
		}
		state, ok := e.router.NewPacket(int32(t), int32(dst))
		if !ok {
			// No surviving route for this pair (faulty network).
			e.totUnroutable++
			if e.measuring {
				e.unroutable++
			}
			continue
		}
		if e.measuring {
			e.generated++
		}
		e.totGenerated++
		if len(e.srcQ[t]) >= e.cfg.SourceQueueCap {
			e.totDropped++
			if e.measuring {
				e.droppedSrc++
			}
			continue
		}
		pk := e.alloc()
		pp := &e.pool[pk]
		pp.Src, pp.Dst = int32(t), int32(dst)
		pp.genAt = e.cycle
		pp.readyAt = e.cycle
		pp.State = state
		pp.reqPort = NoRoute
		e.srcQ[t] = append(e.srcQ[t], pk)
		e.inFlight++
		if !e.inActiveInj[t] {
			e.inActiveInj[t] = true
			sw := t / e.termsPer
			e.activeSrc[sw] = append(e.activeSrc[sw], encodeInj(int32(t)))
		}
	}
}

func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		pk := e.free[n-1]
		e.free = e.free[:n-1]
		return pk
	}
	e.pool = append(e.pool, Packet{})
	return int32(len(e.pool) - 1)
}

// source encoding for arbitration: negative values -(t+1) are terminal
// injection queues, non-negative are channel*VCs+vc queue indices.
func encodeInj(term int32) int64 { return -int64(term) - 1 }

// arbitrate performs one iteration of per-output random arbitration at
// every switch with queued packets and dispatches the winners.
func (e *Engine) arbitrate() {
	for sw := int32(0); sw < int32(len(e.outCh)); sw++ {
		list := e.activeSrc[sw]
		if len(list) == 0 {
			continue
		}
		e.usedPorts = e.usedPorts[:0]
		// Scan active sources; lazily drop the ones that emptied.
		for i := 0; i < len(list); {
			src := list[i]
			if src < 0 {
				term := int32(-src - 1)
				if len(e.srcQ[term]) == 0 {
					e.inActiveInj[term] = false
					list[i] = list[len(list)-1]
					list = list[:len(list)-1]
					continue
				}
				if e.injFreeAt[term] <= e.cycle {
					e.consider(sw, e.srcQ[term][0], src)
				}
			} else {
				q := int32(src)
				if e.qLen[q] == 0 {
					e.inActiveQ[q] = false
					list[i] = list[len(list)-1]
					list = list[:len(list)-1]
					continue
				}
				pk := e.qBuf[int(q)*e.cfg.BufferPackets+int(e.qHead[q])]
				if e.pool[pk].readyAt <= e.cycle {
					e.consider(sw, pk, src)
				}
			}
			i++
		}
		e.activeSrc[sw] = list
		// Dispatch one winner per requested output port.
		for _, port := range e.usedPorts {
			src := e.candSrc[port]
			e.candCount[port] = 0
			e.dispatch(sw, int(port), src)
		}
	}
}

// consider computes (or reuses) the head packet's output request at switch
// sw and registers it as an arbitration candidate if the output can accept
// it this cycle. Winner selection is reservoir sampling, giving each
// requester equal probability — the Table 2 random arbiter.
func (e *Engine) consider(sw int32, pk int32, src int64) {
	p := &e.pool[pk]
	if p.reqPort == NoRoute || e.cycle-p.reqAt >= int32(e.cfg.RequestRefresh) {
		p.reqPort = e.router.Route(e, sw, p)
		p.reqAt = e.cycle
		if p.reqPort == NoRoute {
			return // no viable next hop (faulted mid-flight); packet waits
		}
	}
	var portIdx int32
	if p.reqPort == Eject {
		if e.cfg.InfiniteSink {
			// No reception bandwidth limit: consume immediately, without
			// competing for an ejection port.
			e.dispatch(sw, 0, src)
			return
		}
		// Ejection port of the destination terminal.
		local := int(p.Dst) % e.termsPer
		portIdx = int32(len(e.outCh[sw]) + local)
		if e.ejFreeAt[p.Dst] > e.cycle {
			return
		}
	} else {
		portIdx = int32(p.reqPort)
		ch := e.outCh[sw][portIdx]
		if e.chFreeAt[ch] > e.cycle {
			return
		}
		if !e.router.HasCredit(e, ch, p) {
			return
		}
	}
	e.candCount[portIdx]++
	if e.candCount[portIdx] == 1 {
		e.usedPorts = append(e.usedPorts, portIdx)
		e.candSrc[portIdx] = src
	} else if e.rnd.Intn(int(e.candCount[portIdx])) == 0 {
		e.candSrc[portIdx] = src
	}
}

// dispatch moves the winning packet out of its source queue and onto its
// requested output.
func (e *Engine) dispatch(sw int32, port int, src int64) {
	var pk int32
	if src < 0 {
		term := int32(-src - 1)
		pk = e.srcQ[term][0]
		e.srcQ[term] = e.srcQ[term][1:]
		e.injFreeAt[term] = e.cycle + int32(e.cfg.PacketLength)
	} else {
		q := int32(src)
		pk = e.qBuf[int(q)*e.cfg.BufferPackets+int(e.qHead[q])]
		e.qHead[q] = uint8((int(e.qHead[q]) + 1) % e.cfg.BufferPackets)
		e.qLen[q]--
		// The buffer slot frees when the tail streams out.
		e.scheduleRelease(q, e.cycle+int32(e.cfg.PacketLength))
	}
	p := &e.pool[pk]

	if p.reqPort == Eject {
		e.ejFreeAt[p.Dst] = e.cycle + int32(e.cfg.PacketLength)
		e.scheduleDelivery(pk, e.cycle+int32(e.cfg.PacketLength))
		return
	}

	ch := e.outCh[sw][port]
	q := e.router.SelectVC(e, ch, p)
	if q < 0 {
		panic("simcore: dispatch without VC space (arbitration bug)")
	}
	e.chFreeAt[ch] = e.cycle + int32(e.cfg.PacketLength)
	e.vcOccupied[q]++
	// Enqueue at the receiving switch; header routable after LinkLatency.
	tail := (int(e.qHead[q]) + int(e.qLen[q])) % e.cfg.BufferPackets
	e.qBuf[int(q)*e.cfg.BufferPackets+tail] = pk
	e.qLen[q]++
	to := e.chTo[ch]
	if !e.inActiveQ[q] {
		e.inActiveQ[q] = true
		e.activeSrc[to] = append(e.activeSrc[to], int64(q))
	}
	p.readyAt = e.cycle + int32(e.cfg.LinkLatency)
	e.router.Forwarded(e, sw, int32(port), p)
	p.reqPort = NoRoute
}

func (e *Engine) scheduleRelease(qcode, at int32) {
	slot := at % e.ringSize
	e.relBucket[slot] = append(e.relBucket[slot], qcode)
}

func (e *Engine) scheduleDelivery(pk, at int32) {
	slot := at % e.ringSize
	e.delBucket[slot] = append(e.delBucket[slot], pk)
}
