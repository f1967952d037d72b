package analysis

import (
	"fmt"
	"math"

	"rfclos/internal/core"
	"rfclos/internal/gf"
	"rfclos/internal/rng"
	"rfclos/internal/routing"
	"rfclos/internal/topology"
)

// Fig5Diameter reproduces Figure 5: for a fixed radix, the diameter each
// topology needs as the terminal count grows. For the step-function
// topologies (CFT, OFT) each row is the capacity of one level count; for
// the random topologies (RRN, RFC) each row is the maximum size before the
// diameter increases.
func Fig5Diameter(radix int) *Report {
	rep := &Report{
		Title: fmt.Sprintf("Figure 5: diameter evolution, radix %d", radix),
		Notes: []string{
			"each row: the largest terminal count the topology supports at that diameter",
			"RFC/RRN capacities from the Theorem 4.2 / 2NlnN thresholds; CFT/OFT from closed forms",
		},
		Header: []string{"topology", "diameter", "max terminals"},
	}
	for l := 2; l <= 5; l++ {
		d := 2 * (l - 1)
		rep.AddRow(Str("CFT"), Int(d), Int(cftTerminals(radix, l)))
	}
	// Largest prime power q with 2(q+1) <= radix.
	q := largestPrimePowerOrder(radix)
	for l := 2; l <= 4; l++ {
		d := 2 * (l - 1)
		if q > 0 {
			rep.AddRow(Str("OFT"), Int(d), Int(topology.OFTTerminals(q, l)))
		}
	}
	for l := 2; l <= 5; l++ {
		d := 2 * (l - 1)
		rep.AddRow(Str("RFC"), Int(d), Int(core.MaxTerminals(radix, l)))
	}
	for d := 2; d <= 8; d++ {
		// RRN at fixed radix: Δ = R·D/(D+1) network ports, Δ/D terminals.
		deg := int(float64(radix) * float64(d) / float64(d+1))
		tps := radix - deg
		if deg < 3 || tps < 1 {
			continue
		}
		n := core.RRNMaxSwitches(deg, d)
		rep.AddRow(Str("RRN"), Int(d), Int(n*tps))
	}
	return rep
}

func cftTerminals(radix, levels int) int {
	t := 2
	for i := 0; i < levels; i++ {
		t *= radix / 2
	}
	return t
}

func largestPrimePowerOrder(radix int) int {
	for q := radix/2 - 1; q >= 2; q-- {
		if gf.IsPrimePower(q) {
			return q
		}
	}
	return 0
}

// Fig6Scalability reproduces Figure 6: terminals versus switch radix, at
// each of the given radices, for 2, 3 and 4 levels per topology.
func Fig6Scalability(radices []int) *Report {
	rep := &Report{
		Title:  "Figure 6: scalability (terminals vs radix, levels 2-4)",
		Header: []string{"topology", "levels", "radix", "terminals"},
	}
	for _, l := range []int{2, 3, 4} {
		for _, r := range radices {
			rep.AddRow(Str("CFT"), Int(l), Int(r), Int(cftTerminals(r, l)))
			rep.AddRow(Str("RFC"), Int(l), Int(r), Int(core.MaxTerminals(r, l)))
			if q := largestPrimePowerOrder(r); q > 0 {
				rep.AddRow(Str("OFT"), Int(l), Int(2*(q+1)), Int(topology.OFTTerminals(q, l)))
			}
			d := 2 * (l - 1)
			deg := int(float64(r) * float64(d) / float64(d+1))
			tps := r - deg
			if deg >= 3 && tps >= 1 {
				rep.AddRow(Str("RRN"), Int(l), Int(r), Int(core.RRNMaxSwitches(deg, d)*tps))
			}
		}
	}
	return rep
}

// Fig7Expandability reproduces Figure 7: total port count (the raw cost
// measure) versus terminal count as each topology expands, radix fixed.
// CFT and OFT are step functions (each level jump deploys a full new
// structure); RFC and RRN grow almost linearly.
func Fig7Expandability(radix int, maxTerminals int, points int) *Report {
	if maxTerminals <= 0 {
		maxTerminals = core.MaxTerminals(radix, 3)
	}
	rep := &Report{
		Title: fmt.Sprintf("Figure 7: expandability, radix %d (total ports vs terminals)", radix),
		Notes: []string{
			"ports = 2*wires + terminals; CFT/OFT deploy whole levels (step cost), RFC/RRN grow smoothly",
		},
		Header: []string{"topology", "terminals", "total ports"},
	}
	q := largestPrimePowerOrder(radix)
	for i := 1; i <= points; i++ {
		t := maxTerminals * i / points
		if t < radix {
			continue
		}
		// CFT: smallest level count whose capacity holds t.
		for l := 2; l <= 6; l++ {
			if cftTerminals(radix, l) >= t {
				n1 := cftTerminals(radix, l) / (radix / 2)
				wires := (l - 1) * n1 * radix / 2
				rep.AddRow(Str("CFT"), Int(t), Int(2*wires+t))
				break
			}
		}
		// OFT: same stepping on its own capacities.
		if q > 0 {
			for l := 2; l <= 5; l++ {
				if topology.OFTTerminals(q, l) >= t {
					n := q*q + q + 1
					n1 := 2 * pow(n, l-1)
					wires := (l - 1) * n1 * (q + 1)
					rep.AddRow(Str("OFT"), Int(t), Int(2*wires+t))
					break
				}
			}
		}
		// RFC: minimum levels subject to the Theorem 4.2 threshold.
		for l := 2; l <= 6; l++ {
			if core.MaxTerminals(radix, l) >= t {
				p := core.ParamsForTerminals(radix, l, t)
				rep.AddRow(Str("RFC"), Int(t), Int(2*p.Wires()+t))
				break
			}
		}
		// RRN: fixed split Δ/terminals-per-switch, linear growth, stepping
		// only when the diameter bound forces a re-split.
		for d := 2; d <= 8; d++ {
			deg := int(float64(radix) * float64(d) / float64(d+1))
			tps := radix - deg
			if deg < 3 || tps < 1 {
				continue
			}
			if core.RRNMaxSwitches(deg, d)*tps >= t {
				n := (t + tps - 1) / tps
				rep.AddRow(Str("RRN"), Int(t), Int(n*deg+t))
				break
			}
		}
	}
	return rep
}

func pow(b, e int) int {
	v := 1
	for i := 0; i < e; i++ {
		v *= b
	}
	return v
}

// Costs reproduces the §5 cost comparisons: switch and wire counts for the
// three scenarios plus the radix-20 equal-size RFC, with the savings the
// paper quotes (31% switches / 36% wires at maximum expansion).
func Costs() *Report {
	rep := &Report{
		Title:  "§5 cost comparison (paper scale, radix 36)",
		Header: []string{"network", "terminals", "switches", "wires", "radix"},
	}
	type row struct {
		name                      string
		t, switches, wires, radix int
	}
	cft3 := row{"CFT 3-level", 11664, 1620, 23328, 36}
	rfc3 := core.Params{Radix: 36, Levels: 3, Leaves: 648}
	rfc20 := core.Params{Radix: 20, Levels: 3, Leaves: 1166}
	cft4 := row{"CFT 4-level", 209952, 40824, 629856, 36}
	rfcMax := core.Params{Radix: 36, Levels: 3, Leaves: 11254}
	rfc100 := core.Params{Radix: 36, Levels: 3, Leaves: 5556}
	rows := []row{
		cft3,
		{"RFC 3-level equal", rfc3.Terminals(), rfc3.Switches(), rfc3.Wires(), 36},
		{"RFC 3-level radix-20", rfc20.Terminals(), rfc20.Switches(), rfc20.Wires(), 20},
		{"RFC 3-level 100K", rfc100.Terminals(), rfc100.Switches(), rfc100.Wires(), 36},
		{"RFC 3-level max (200K)", rfcMax.Terminals(), rfcMax.Switches(), rfcMax.Wires(), 36},
		cft4,
	}
	for _, r := range rows {
		rep.AddRow(Str(r.name), Int(r.t), Int(r.switches), Int(r.wires), Int(r.radix))
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("200K savings vs 4-level CFT: %.0f%% switches, %.0f%% wires",
			100*(1-float64(rfcMax.Switches())/float64(cft4.switches)),
			100*(1-float64(rfcMax.Wires())/float64(cft4.wires))))
	return rep
}

// Thm42 reproduces the Theorem 4.2 probability curve empirically: for a
// 2-level RFC of n1 leaves, it sweeps the radix across the threshold and
// reports empirical routability frequency against the asymptotic e^{-e^{-x}}
// and the exact finite-size Poisson prediction. It reads Seed and Trials
// (generations per radix row, default Thm42Defaults). The Monte-Carlo
// trials of every radix row fan out on a worker pool; each trial's
// generator is derived from (seed, radix, trial), so the report is
// byte-identical for any worker count, and each row's empirical frequency
// is a mergeable aggregate over per-trial 0/1 outcomes (exact under
// sharding: sums of 0/1 floats carry no rounding).
func Thm42(p Params, n1 int) (*Report, error) {
	p = p.WithDefaults(Thm42Defaults)
	rep := &Report{
		Title: fmt.Sprintf("Theorem 4.2 Monte-Carlo (2-level RFC, N1=%d, %d trials/row)", n1, p.Trials),
		Notes: []string{
			"empirical = fraction of generated RFCs with the common-ancestor property",
			"asymptotic = e^{-e^{-x}}; exact = e^{-λ} with hypergeometric λ",
		},
		Header: []string{"radix", "x", "empirical", "asymptotic", "exact"},
	}
	thr := core.ThresholdRadix(n1, 2)
	lo := int(thr*0.8) &^ 1
	hi := int(thr*1.25) &^ 1
	for radix := lo; radix <= hi; radix += 2 {
		rp := core.Params{Radix: radix, Levels: 2, Leaves: n1}
		if rp.Validate() != nil {
			continue
		}
		rowSeed := rng.DeriveSeed(p.seed(), rng.StringCoord("thm42"), uint64(radix))
		obs, err := trialObs(p, p.Trials, rowSeed, func(r *rng.Rand) (float64, error) {
			c, err := core.Generate(rp, r)
			if err != nil {
				return 0, err
			}
			if routing.New(c).Routable() {
				return 1, nil
			}
			return 0, nil
		})
		if err != nil {
			return nil, err
		}
		x := core.XParam(radix, n1, 2)
		rep.AddKeyed(fmt.Sprintf("R=%d", radix),
			Int(radix), Float(x, "%.4g"), Mean(obs, p.Trials, "%.4g"),
			Float(core.SuccessProbability(x), "%.4g"), Float(exactRoutableProb(n1, radix), "%.4g"))
	}
	return rep, nil
}

// exactRoutableProb computes e^{-λ} with the exact hypergeometric pair
// disjointness probability for a 2-level RFC.
func exactRoutableProb(n1, radix int) float64 {
	n2 := n1 / 2
	delta := radix / 2
	if delta > n2 {
		return 1
	}
	logP := 0.0
	for i := 0; i < delta; i++ {
		num := float64(n2 - delta - i)
		if num <= 0 {
			return 1
		}
		logP += math.Log(num) - math.Log(float64(n2-i))
	}
	lambda := float64(n1) * float64(n1-1) / 2 * math.Exp(logP)
	return math.Exp(-lambda)
}
