// Byte goldens for the adjacency store and the streamed exports, in an
// external test package so builds can come from internal/core.
package topology_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"testing"

	"rfclos/internal/core"
	"rfclos/internal/rng"
	"rfclos/internal/topology"
)

// storeGolden holds, for each quantity a store shows through a churn
// sequence, the first 16 hex digits of its SHA-256.
type storeGolden struct {
	adjacency string // Wires and every switch's Up and Down lists, in order
	edgeSeq   string // the EdgeSeq stream
	removes   string // each RemoveLink's link and result
	exports   string // the json and edges export bytes
}

// The golden tables are keyed by family. They were captured while a copy
// of the pre-CSR store ([][]int32 lists mutated in place, "the arena") ran
// in lockstep with the CSR store and matched it after every step, so a
// match here is a match with the arena.
var (
	churnGoldens = map[string]storeGolden{
		"rfc":         {"d85bad545b377ea1", "4f6be7d9a6e59c80", "a22dac03258aefe3", "008dc8e3dae12f3d"},
		"xgft":        {"22ec29c8c7aaa5f9", "acd9e5be68766bff", "68963c47c6ac71f0", "5834927dd00fcee1"},
		"cft":         {"7a55e06f1edee113", "c226568bd9eee803", "429b7d3670f5499f", "ca91fa3a354267fc"},
		"oft":         {"b888478837973210", "155793987cdb6de8", "b87f148dbb2e8dbc", "a18c57403d1b5e64"},
		"random-kary": {"8439d56e9c23f157", "8421083f1a9d39dd", "5c9929a40ac31e91", "2c9d1da9488795ee"},
	}
	cloneGoldens = map[string]storeGolden{
		"rfc":         {"3d2534c0a4f03612", "69614686e757fcb1", "d8e83bd07d1ea4f9", "28fd15a3d18cb302"},
		"xgft":        {"40d48c08ba01e3c0", "741aaabee2364c98", "834f904ff2e86c0d", "277291b4f87f14e9"},
		"cft":         {"2bbffa8d3f313060", "91505017de4e8ad2", "6670b3a85376b59c", "917197eeb58e0018"},
		"oft":         {"a5bbf2d7a9b18015", "39226c0de954843e", "69efb451de99853a", "749586b6321c7416"},
		"random-kary": {"22dc5a9ed424577b", "8d50006e7864928a", "fcc586061eeb730e", "3414db3d2ab3004a"},
	}
)

// rfc32 is the random folded Clos both goldens build: radix 8, 32 leaves.
func rfc32() (*topology.Clos, error) {
	return core.Generate(core.Params{Radix: 8, Leaves: 32, Levels: 3}, rng.New(5))
}

// storeFamilies builds one small instance per folded Clos family;
// random-kary is a random 4-ary 3-tree.
var storeFamilies = []struct {
	name  string
	build func() (*topology.Clos, error)
}{
	{"rfc", rfc32},
	{"xgft", func() (*topology.Clos, error) { return topology.NewXGFT([]int{3, 4, 5}, []int{1, 2, 2}, 16) }},
	{"cft", func() (*topology.Clos, error) { return topology.NewCFT(8, 3) }},
	{"oft", func() (*topology.Clos, error) { return topology.NewOFT(2, 3) }},
	{"random-kary", func() (*topology.Clos, error) {
		return core.GenerateGeneral(core.NewHashnetParams(16, 3, 4, 4), rng.New(9))
	}},
}

// storeDigest hashes, field by field of storeGolden, what stores show.
type storeDigest struct{ adjacency, edgeSeq, removes, exports hash.Hash }

func newStoreDigest() *storeDigest {
	return &storeDigest{sha256.New(), sha256.New(), sha256.New(), sha256.New()}
}

// snap digests each store's adjacency, edge stream and exports.
func (d *storeDigest) snap(t *testing.T, cs ...*topology.Clos) {
	t.Helper()
	for _, c := range cs {
		fmt.Fprintln(d.adjacency, c.Wires())
		for s := range int32(c.NumSwitches()) {
			fmt.Fprintln(d.adjacency, c.Up(s), c.Down(s))
		}
		for l := range c.EdgeSeq() {
			fmt.Fprint(d.edgeSeq, l, " ")
		}
		fmt.Fprintln(d.edgeSeq)
		for _, format := range []string{"json", "edges"} {
			if err := topology.Export(c, format, d.exports); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// remove removes l from c and digests the link and the result.
func (d *storeDigest) remove(c *topology.Clos, l topology.Link) {
	fmt.Fprintln(d.removes, l, c.RemoveLink(l.A, l.B))
}

// check compares the digests with want, field by field.
func (d *storeDigest) check(t *testing.T, want storeGolden) {
	t.Helper()
	sum16 := func(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil))[:16] }
	for _, f := range []struct {
		name string
		h    hash.Hash
		want string
	}{
		{"adjacency", d.adjacency, want.adjacency},
		{"edgeSeq", d.edgeSeq, want.edgeSeq},
		{"removes", d.removes, want.removes},
		{"exports", d.exports, want.exports},
	} {
		if got := sum16(f.h); got != f.want {
			t.Errorf("%s digest = %s, want %s", f.name, got, f.want)
		}
	}
}

// TestStoreMatchesArenaUnderChurn digests the store after every step of a
// seeded churn sequence on a fresh build of each family: 200 steps, each a
// RemoveLink of a present link (then again, now absent) or an AddLink of a
// removed one.
func TestStoreMatchesArenaUnderChurn(t *testing.T) {
	for _, fam := range storeFamilies {
		t.Run(fam.name, func(t *testing.T) {
			c, err := fam.build()
			if err != nil {
				t.Fatal(err)
			}
			d := newStoreDigest()
			d.snap(t, c)
			r := rng.New(42)
			var removed []topology.Link
			for step := 0; step < 200; step++ {
				if len(removed) > 0 && (c.Wires() == 0 || r.Intn(3) == 0) {
					i := r.Intn(len(removed))
					c.AddLink(removed[i].A, removed[i].B)
					removed = append(removed[:i], removed[i+1:]...)
				} else {
					links := c.Links()
					l := links[r.Intn(len(links))]
					d.remove(c, l)
					d.remove(c, l)
					removed = append(removed, l)
				}
				d.snap(t, c)
			}
			d.check(t, churnGoldens[fam.name])
		})
	}
}

// TestCloneMatchesArenaClone digests a store and its clone after every step
// of a seeded divergence on a fresh build of each family: 8 removals give
// the store an overlay, then 20 removals on the clone and 20 on the store
// must not reach the other.
func TestCloneMatchesArenaClone(t *testing.T) {
	for _, fam := range storeFamilies {
		t.Run(fam.name, func(t *testing.T) {
			c, err := fam.build()
			if err != nil {
				t.Fatal(err)
			}
			d := newStoreDigest()
			r := rng.New(7)
			pre := c.Links()
			for i := 0; i < 8; i++ {
				d.remove(c, pre[r.Intn(len(pre))])
			}
			cp := c.Clone()
			d.snap(t, c, cp)
			for _, side := range []*topology.Clos{cp, c} {
				links := side.Links()
				for i := 0; i < 20; i++ {
					d.remove(side, links[r.Intn(len(links))])
					d.snap(t, c, cp)
				}
			}
			d.check(t, cloneGoldens[fam.name])
		})
	}
}

// TestStreamedExportGoldens pins the bytes of every export format for a
// random folded Clos, a fat-tree and an RRN. The digests were captured while
// reference encoders (encoding/json and fmt over materialised edge slices)
// still ran beside the streaming encoders and matched them byte for byte.
func TestStreamedExportGoldens(t *testing.T) {
	rfc, err := rfc32()
	if err != nil {
		t.Fatal(err)
	}
	cft, err := topology.NewCFT(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	rrn, err := topology.NewRRN(24, 5, 3, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	export := map[string]func(format string, w io.Writer) error{
		"rfc": func(format string, w io.Writer) error { return topology.Export(rfc, format, w) },
		"cft": func(format string, w io.Writer) error { return topology.Export(cft, format, w) },
		"rrn": func(format string, w io.Writer) error { return topology.ExportRRN(rrn, format, w) },
	}
	for _, tc := range []struct{ network, format, want string }{
		{"rfc", "json", "b4e1c581ea79b10e1e93a103c696a5a1169adafeac5f9955597bc73b84d5820e"},
		{"rfc", "dot", "bf7e96a46eb9304e3ecfb9f8b262db78e33eac6e18fef8f67bb4818788f96ebe"},
		{"rfc", "edges", "50f9e221fb25d819cd68d48145c851684b9efcd40061ff77c3af0d5feca75d1e"},
		{"cft", "json", "52b3e81caef83c75fbaae6a699b3ab1b6754191fe6e0e6617d0a1a7b65724e41"},
		{"cft", "dot", "d2e014dc6720763741ba34307c39426fdd299f6cafa89649b16e0901eabb9a67"},
		{"cft", "edges", "3df74c8d17ffde95f31c810ce2184e0b48bc138a7197fb63140da49ff645a288"},
		{"rrn", "json", "85231ead553cf5ed33ea99b0ec899ca1fb98c323ce083d3f8f95339517121925"},
		{"rrn", "dot", "65d86db9a2b26d5457b4a62319769d73263545c8edcd3f3095f96d3316ba4390"},
		{"rrn", "edges", "fac1362ac2f3ad35eda7c79c93d2101d81e8897aa215b24430352157fd8f3e50"},
	} {
		h := sha256.New()
		if err := export[tc.network](tc.format, h); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s export of %s: digest = %s, want %s", tc.format, tc.network, got, tc.want)
		}
	}
}
