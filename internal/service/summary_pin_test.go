package service

import (
	"testing"

	"rfclos/internal/rng"
	"rfclos/internal/routing"
)

// summaryPin is the memory accounting one build reports: the summary's
// cover and index fields and the cache charge.
type summaryPin struct {
	CoverBytes  int
	CoverRepr   string
	IndexLeaves int
	IndexBytes  int
	IndexTier   string
	MemBytes    int64
}

func pinOf(t *Topology) summaryPin {
	sum := (*Server)(nil).summarize(t, false)
	return summaryPin{
		CoverBytes:  sum.CoverBytes,
		CoverRepr:   sum.CoverRepr,
		IndexLeaves: sum.IndexLeaves,
		IndexBytes:  sum.IndexBytes,
		IndexTier:   sum.IndexTier,
		MemBytes:    t.MemBytes(),
	}
}

// faultedPin removes links links of the build sp names, chosen the way
// GET /v1/faults chooses them for seed, rebuilds the routing state with
// routing.New and indexes it as Build would.
func faultedPin(t *testing.T, sp Spec, links int, seed uint64) summaryPin {
	t.Helper()
	base := buildNormalized(t, sp)
	faulty := base.Clos.Clone()
	all := faulty.Links()
	stream := rng.At(seed, rng.StringCoord("rfcd/faults"))
	stream.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	for _, l := range all[:links] {
		faulty.RemoveLink(l.A, l.B)
	}
	ud := routing.New(faulty)
	return pinOf(&Topology{
		Clos:   faulty,
		Router: ud,
		Index:  routing.NewTurnIndex(ud, DefaultDenseIndexBytes),
	})
}

func buildNormalized(t *testing.T, sp Spec) *Topology {
	t.Helper()
	sp, err := sp.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	topo, err := Build(sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestSummaryMemoryPins pins what build summaries and the cache charge
// report for the covers and the turn index, across container shapes: the
// 65,536-leaf XGFT rfcd's query benchmark serves (run and full covers),
// two random folded Clos (sparse, bits and comp covers), a commodity fat
// tree, a k-ary tree, an orthogonal fat tree and a faulted clone rebuilt
// through routing.New. Sharing containers
// between cover slots must leave every value here unchanged: the charge is
// per slot.
func TestSummaryMemoryPins(t *testing.T) {
	for _, tc := range []struct {
		name string
		sp   Spec
		slow bool
		want summaryPin
	}{
		{
			name: "xgft-64K",
			sp:   Spec{Kind: "xgft", M: []int{4, 8, 8192}, W: []int{1, 8, 2}, Radix: 8192},
			slow: true,
			want: summaryPin{CoverBytes: 17564672, CoverRepr: "run:131072 sparse:65536 full:131088",
				IndexLeaves: 65536, IndexBytes: 8912896, IndexTier: "succinct", MemBytes: 33555952},
		},
		{
			name: "rfc-36-3-648",
			sp:   Spec{Kind: "rfc", Radix: 36, Levels: 3, Leaves: 648, Seed: 1},
			want: summaryPin{CoverBytes: 324000, CoverRepr: "sparse:1296 bits:972 full:1296",
				IndexLeaves: 648, IndexBytes: 419904, IndexTier: "dense", MemBytes: 939904},
		},
		{
			name: "rfc-16-3-128",
			sp:   Spec{Kind: "rfc", Radix: 16, Levels: 3, Leaves: 128, Seed: 1},
			want: summaryPin{CoverBytes: 43176, CoverRepr: "sparse:128 comp:6 bits:320 full:250",
				IndexLeaves: 128, IndexBytes: 16384, IndexTier: "dense", MemBytes: 78040},
		},
		{
			name: "cft-16-3",
			sp:   Spec{Kind: "cft", Radix: 16, Levels: 3},
			want: summaryPin{CoverBytes: 38400, CoverRepr: "run:256 sparse:128 full:320",
				IndexLeaves: 128, IndexBytes: 16384, IndexTier: "dense", MemBytes: 75824},
		},
		{
			name: "kary-4-3",
			sp:   Spec{Kind: "kary", K: 4, Levels: 3},
			want: summaryPin{CoverBytes: 5312, CoverRepr: "run:32 sparse:16 full:48",
				IndexLeaves: 16, IndexBytes: 256, IndexTier: "dense", MemBytes: 7536},
		},
		{
			name: "oft-3-3",
			sp:   Spec{Kind: "oft", Q: 3, Levels: 3},
			want: summaryPin{CoverBytes: 153912, CoverRepr: "run:17 sparse:676 bits:828 full:338",
				IndexLeaves: 338, IndexBytes: 114244, IndexTier: "dense", MemBytes: 294824},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.slow && testing.Short() {
				t.Skip("64K-leaf build skipped under -short")
			}
			if got := pinOf(buildNormalized(t, tc.sp)); got != tc.want {
				t.Errorf("%s:\n got %#v\nwant %#v", tc.name, got, tc.want)
			}
		})
	}
	t.Run("rfc-16-3-128-faulted", func(t *testing.T) {
		want := summaryPin{CoverBytes: 43964, CoverRepr: "sparse:128 comp:32 bits:321 full:223",
			IndexLeaves: 128, IndexBytes: 16384, IndexTier: "dense", MemBytes: 102028}
		sp := Spec{Kind: "rfc", Radix: 16, Levels: 3, Leaves: 128, Seed: 1}
		if got := faultedPin(t, sp, 200, 7); got != want {
			t.Errorf("faulted clone:\n got %#v\nwant %#v", got, want)
		}
	})
}
