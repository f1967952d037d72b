// Command rfcgen generates a topology and prints its structural properties
// or exports it in a machine-readable format.
//
// Usage examples:
//
//	rfcgen -topo rfc -radix 36 -levels 3 -leaves 648 -seed 1
//	rfcgen -topo cft -radix 16 -levels 3
//	rfcgen -topo oft -q 5 -levels 2 -format edges
//	rfcgen -topo rfc -radix 16 -format json > rfc.json
//	rfcgen -topo rrn -n 128 -degree 8 -terms 4 -format dot
//
// -format uses the same streaming encoders as the rfcd export endpoint
// (GET /v1/topology/{key}/export): output is produced edge-by-edge from the
// topology's link iterators without materializing the edge list, so offline
// and online exports of the same build are byte-identical at any scale.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"rfclos"
	"rfclos/internal/topology"
)

func main() {
	var (
		topo   = flag.String("topo", "rfc", "topology: rfc | cft | oft | kary | rrn")
		radix  = flag.Int("radix", 16, "switch radix (rfc, cft)")
		levels = flag.Int("levels", 3, "levels (rfc, cft, oft, kary)")
		leaves = flag.Int("leaves", 0, "leaf switches N1 (rfc; 0 = maximum for radix/levels)")
		q      = flag.Int("q", 3, "projective plane order (oft)")
		k      = flag.Int("k", 4, "arity (kary)")
		n      = flag.Int("n", 64, "switches (rrn)")
		degree = flag.Int("degree", 6, "network degree (rrn)")
		terms  = flag.Int("terms", 3, "terminals per switch (rrn)")
		seed   = flag.Uint64("seed", 1, "random seed")
		format = flag.String("format", "",
			"export format: "+strings.Join(topology.ExportFormats(), " | ")+" (empty = summary)")
	)
	flag.Parse()
	if err := run(*topo, *radix, *levels, *leaves, *q, *k, *n, *degree, *terms, *seed, *format); err != nil {
		fmt.Fprintln(os.Stderr, "rfcgen:", err)
		os.Exit(1)
	}
}

func run(topo string, radix, levels, leaves, q, k, n, degree, terms int, seed uint64, format string) error {
	if topo == "rrn" {
		rrn, err := rfclos.NewRRN(n, degree, terms, seed)
		if err != nil {
			return err
		}
		if format != "" {
			return topology.ExportRRN(rrn, format, os.Stdout)
		}
		fmt.Printf("RRN: N=%d degree=%d radix=%d terminals=%d wires=%d diameter=%d\n",
			rrn.N(), rrn.Degree, rrn.Radix(), rrn.Terminals(), rrn.Wires(), rrn.Diameter())
		return nil
	}

	var (
		c   *rfclos.Clos
		err error
	)
	switch topo {
	case "rfc":
		if leaves == 0 {
			leaves = rfclos.MaxLeaves(radix, levels)
		}
		p := rfclos.Params{Radix: radix, Levels: levels, Leaves: leaves}
		var router *rfclos.Router
		c, router, err = rfclos.NewRFC(p, seed)
		if err != nil {
			return err
		}
		// The advisory comments would corrupt machine-readable exports (and
		// break byte-identity with the rfcd export endpoint), so summary only.
		if format == "" {
			fmt.Printf("# threshold radix %.2f, x=%.2f, predicted routability %.3f\n",
				rfclos.ThresholdRadix(leaves, levels), rfclos.XParam(radix, leaves, levels),
				rfclos.SuccessProbability(rfclos.XParam(radix, leaves, levels)))
			fmt.Printf("# up/down routable: %v\n", router.Routable())
			fmt.Printf("# cover sets: %d bytes compressed (%s)\n", router.CoverBytes(), router.CoverRepr())
		}
	case "cft":
		c, err = rfclos.NewCFT(radix, levels)
	case "oft":
		c, err = rfclos.NewOFT(q, levels)
	case "kary":
		c, err = rfclos.NewKaryTree(k, levels)
	default:
		return fmt.Errorf("unknown topology %q", topo)
	}
	if err != nil {
		return err
	}
	if format != "" {
		return topology.Export(c, format, os.Stdout)
	}
	fmt.Println(c)
	fmt.Printf("switches=%d total-ports=%d\n", c.NumSwitches(), c.TotalPorts())
	return nil
}
