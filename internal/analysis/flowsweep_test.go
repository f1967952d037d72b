package analysis

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"rfclos/internal/rng"
)

// TestFlowScaleSolveBits pins every bit of the small flowscale solves that
// the report rounds away: a SHA-256 per seed over each of the 12 solves'
// rate bits, round count and saturated-link count, taken in job order at
// the exhibit's benchmark arguments (loads 0.5 and 1.0, one rep, the
// default uniform and storm patterns). The report goldens print four
// decimals, so a solver change that moves a rate in its last bits shows
// here first.
func TestFlowScaleSolveBits(t *testing.T) {
	if testing.Short() {
		t.Skip("24 flowscale solves")
	}
	want := map[uint64]string{
		7: "a72ea10e5dac321450938ccbb9ac5c6dede29178b637045c47b186d79f81725a",
		8: "fe2036a7c9d428963e120b74e9eb60959571c2dc06f12cd9687375fa156e502f",
	}
	for _, seed := range []uint64{7, 8} {
		p := Params{Scale: ScaleSmall, Loads: []float64{0.5, 1.0}, Reps: 1, Patterns: []string{"uniform", "storm"}, Seed: seed, Workers: 1}
		nets, _ := flowScaleNets(p)
		g := flowGrid(nets, p)
		np := len(p.Patterns)
		// Each job's words, keyed by its coordinates: the grid claims jobs
		// out of job order.
		words := map[gridJob][]uint64{}
		g.run = func(j gridJob, stream *rng.Rand) ([]float64, error) {
			res, err := solveFlowJob(nets[j.g/np], p.Patterns[j.g%np], j.x, stream)
			if err != nil {
				return nil, err
			}
			var w []uint64
			for _, r := range res.Rates {
				w = append(w, math.Float64bits(r))
			}
			words[j] = append(w, uint64(res.Rounds), uint64(res.SatLinks))
			return []float64{0, 0, 0}, nil
		}
		if _, err := g.collect(); err != nil {
			t.Fatal(err)
		}
		if len(words) != 12 {
			t.Fatalf("seed %d: %d solves, want 12", seed, len(words))
		}
		h := sha256.New()
		var word [8]byte
		for g, grp := range g.groups {
			for _, x := range grp.xs {
				for _, v := range words[gridJob{g: g, x: x}] {
					binary.LittleEndian.PutUint64(word[:], v)
					h.Write(word[:])
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want[seed] {
			t.Errorf("seed %d: solve hash = %s, want %s", seed, got, want[seed])
		}
	}
}
