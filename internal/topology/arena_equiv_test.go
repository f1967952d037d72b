// CSR-vs-arena equivalence properties: the CSR level store plus its
// mutation overlay must be observationally identical to the pre-refactor
// representation — [][]int32 up/down lists indexed by global switch id,
// mutated in place by append and swap-remove. refArena below is a verbatim
// copy of that implementation's semantics; the tests drive it in lockstep
// with real Clos values across topology families (RFC, XGFT, CFT, OFT and
// the random k-ary tree; RRN is graph-based, not a Clos, and has no arena
// to compare), healthy and under fault churn, and require every observable
// — per-switch adjacency and order, Wires, EdgeSeq, RemoveLink return
// values, Clone independence, export bytes — to match. An external test
// package so builds can come from internal/core, which imports this one.
package topology_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"rfclos/internal/core"
	"rfclos/internal/rng"
	"rfclos/internal/topology"
)

// refArena carries the old adjacency representation with the old mutation
// semantics (AddLink appends; RemoveLink swap-removes, reports presence,
// and panics on asymmetry; Clone deep-copies into capacity-pinned arenas).
type refArena struct {
	up, down [][]int32
}

// snapshotArena captures a topology's current adjacency into the reference
// representation. The snapshot's correctness rests on the build-order pins
// that exist independently of these tests: the emitter-vs-AddLink order
// test in iter_test.go and the streamed-export byte goldens.
func snapshotArena(c *topology.Clos) *refArena {
	n := c.NumSwitches()
	a := &refArena{up: make([][]int32, n), down: make([][]int32, n)}
	for s := int32(0); s < int32(n); s++ {
		a.up[s] = append([]int32(nil), c.Up(s)...)
		a.down[s] = append([]int32(nil), c.Down(s)...)
	}
	return a
}

func (a *refArena) addLink(x, y int32) {
	a.up[x] = append(a.up[x], y)
	a.down[y] = append(a.down[y], x)
}

func (a *refArena) removeLink(x, y int32) bool {
	if !refRemoveOne(&a.up[x], y) {
		return false
	}
	if !refRemoveOne(&a.down[y], x) {
		panic("refArena: asymmetric link state")
	}
	return true
}

// refRemoveOne is the old removeOne verbatim: swap with last, truncate.
func refRemoveOne(list *[]int32, v int32) bool {
	l := *list
	for i, w := range l {
		if w == v {
			l[i] = l[len(l)-1]
			*list = l[:len(l)-1]
			return true
		}
	}
	return false
}

// clone is the old cloneArena-based Clone verbatim: both directions copied
// into one backing array per direction with capacity-pinned sub-slices.
func (a *refArena) clone() *refArena {
	return &refArena{up: refCloneArena(a.up), down: refCloneArena(a.down)}
}

func refCloneArena(lists [][]int32) [][]int32 {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	arena := make([]int32, 0, total)
	out := make([][]int32, len(lists))
	for i, l := range lists {
		pos := len(arena)
		arena = append(arena, l...)
		out[i] = arena[pos:len(arena):len(arena)]
	}
	return out
}

// links materialises the arena's canonical edge order: ascending lower
// endpoint, up-neighbours in list order — the old Links()/EdgeSeq order.
func (a *refArena) links() []topology.Link {
	var out []topology.Link
	for s := range a.up {
		for _, b := range a.up[s] {
			out = append(out, topology.Link{A: int32(s), B: b})
		}
	}
	return out
}

func (a *refArena) wires() int {
	n := 0
	for _, l := range a.up {
		n += len(l)
	}
	return n
}

// refJSONBytes renders Export's json format (encoding/json over the
// materialised link slice) for the arena's state.
func refJSONBytes(t *testing.T, c *topology.Clos, a *refArena) []byte {
	t.Helper()
	out := struct {
		Radix        int      `json:"radix"`
		TermsPerLeaf int      `json:"terms_per_leaf"`
		LevelSizes   []int    `json:"level_sizes"`
		Links        [][2]int `json:"links"`
	}{Radix: c.Radix, TermsPerLeaf: c.TermsPerLeaf, Links: [][2]int{}}
	for lev := 1; lev <= c.Levels(); lev++ {
		out.LevelSizes = append(out.LevelSizes, c.LevelSize(lev))
	}
	for _, l := range a.links() {
		out.Links = append(out.Links, [2]int{int(l.A), int(l.B)})
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(out); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// refEdgeBytes renders Export's edges format for the arena's state.
func refEdgeBytes(a *refArena) []byte {
	var buf bytes.Buffer
	for _, l := range a.links() {
		fmt.Fprintln(&buf, l.A, l.B)
	}
	return buf.Bytes()
}

// requireEqual asserts every observable of c matches the reference arena.
func requireEqual(t *testing.T, label string, c *topology.Clos, a *refArena) {
	t.Helper()
	for s := int32(0); s < int32(c.NumSwitches()); s++ {
		if !slices.Equal(c.Up(s), a.up[s]) {
			t.Fatalf("%s: switch %d up: store %v, arena %v", label, s, c.Up(s), a.up[s])
		}
		if !slices.Equal(c.Down(s), a.down[s]) {
			t.Fatalf("%s: switch %d down: store %v, arena %v", label, s, c.Down(s), a.down[s])
		}
	}
	if c.Wires() != a.wires() {
		t.Fatalf("%s: wires: store %d, arena %d", label, c.Wires(), a.wires())
	}
	want := a.links()
	i := 0
	for l := range c.EdgeSeq() {
		if i >= len(want) || l != want[i] {
			t.Fatalf("%s: EdgeSeq[%d] = %v, arena order says %v", label, i, l, want[i:min(i+1, len(want))])
		}
		i++
	}
	if i != len(want) {
		t.Fatalf("%s: EdgeSeq yielded %d links, arena has %d", label, i, len(want))
	}
	var gotJSON bytes.Buffer
	if err := topology.Export(c, "json", &gotJSON); err != nil {
		t.Fatal(err)
	}
	if wantJSON := refJSONBytes(t, c, a); !bytes.Equal(gotJSON.Bytes(), wantJSON) {
		t.Fatalf("%s: json export diverges from the arena reference", label)
	}
	var gotEdges bytes.Buffer
	if err := topology.Export(c, "edges", &gotEdges); err != nil {
		t.Fatal(err)
	}
	if wantEdges := refEdgeBytes(a); !bytes.Equal(gotEdges.Bytes(), wantEdges) {
		t.Fatalf("%s: edges export diverges from the arena reference", label)
	}
}

// equivCases builds one small instance per folded Clos family.
func equivCases(t *testing.T) map[string]*topology.Clos {
	t.Helper()
	out := map[string]*topology.Clos{}
	rfc, err := core.Generate(core.Params{Radix: 8, Leaves: 32, Levels: 3}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	out["rfc"] = rfc
	xgft, err := topology.NewXGFT([]int{3, 4, 5}, []int{1, 2, 2}, 16)
	if err != nil {
		t.Fatal(err)
	}
	out["xgft"] = xgft
	cft, err := topology.NewCFT(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	out["cft"] = cft
	oft, err := topology.NewOFT(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	out["oft"] = oft
	kary, err := core.GenerateGeneral(core.NewHashnetParams(16, 3, 4, 4), rng.New(9)) // a random 4-ary 3-tree
	if err != nil {
		t.Fatal(err)
	}
	out["random-kary"] = kary
	return out
}

// TestStoreMatchesArenaUnderChurn is the equivalence property: starting
// from a healthy build, a deterministic random sequence of RemoveLink
// (present and absent links alike) and AddLink operations applied to both
// representations keeps them identical after every step.
func TestStoreMatchesArenaUnderChurn(t *testing.T) {
	for name, c := range equivCases(t) {
		t.Run(name, func(t *testing.T) {
			a := snapshotArena(c)
			requireEqual(t, "healthy", c, a)

			r := rng.New(42)
			var removed []topology.Link
			for step := 0; step < 200; step++ {
				switch {
				case len(removed) > 0 && (a.wires() == 0 || r.Intn(3) == 0):
					// Re-add a previously removed link.
					i := r.Intn(len(removed))
					l := removed[i]
					removed = append(removed[:i], removed[i+1:]...)
					c.AddLink(l.A, l.B)
					a.addLink(l.A, l.B)
				default:
					links := a.links()
					l := links[r.Intn(len(links))]
					if got, want := c.RemoveLink(l.A, l.B), a.removeLink(l.A, l.B); got != want || !got {
						t.Fatalf("step %d: RemoveLink(%v) store=%v arena=%v", step, l, got, want)
					}
					removed = append(removed, l)
					// Removing it again must be a no-op on both sides.
					if got, want := c.RemoveLink(l.A, l.B), a.removeLink(l.A, l.B); got || want {
						t.Fatalf("step %d: double RemoveLink(%v) store=%v arena=%v", step, l, got, want)
					}
				}
			}
			requireEqual(t, "churned", c, a)
		})
	}
}

// TestCloneMatchesArenaClone pins Clone against the old deep-copy
// semantics: churn on a clone never leaks into the original (whose CSR base
// the clone shares), churn on the original never leaks into the clone, and
// both track their reference arenas throughout.
func TestCloneMatchesArenaClone(t *testing.T) {
	for name, c := range equivCases(t) {
		t.Run(name, func(t *testing.T) {
			a := snapshotArena(c)

			// Churn the original a little first so the clone starts from a
			// store with a live overlay.
			r := rng.New(7)
			pre := a.links()
			for i := 0; i < 8; i++ {
				l := pre[r.Intn(len(pre))]
				c.RemoveLink(l.A, l.B)
				a.removeLink(l.A, l.B)
			}

			cp, cpa := c.Clone(), a.clone()
			requireEqual(t, "clone", cp, cpa)

			// Diverge: independent churn streams on each side.
			links := cpa.links()
			for i := 0; i < 20; i++ {
				l := links[r.Intn(len(links))]
				if got, want := cp.RemoveLink(l.A, l.B), cpa.removeLink(l.A, l.B); got != want {
					t.Fatalf("clone RemoveLink(%v) store=%v arena=%v", l, got, want)
				}
			}
			origLinks := a.links()
			for i := 0; i < 20; i++ {
				l := origLinks[r.Intn(len(origLinks))]
				if got, want := c.RemoveLink(l.A, l.B), a.removeLink(l.A, l.B); got != want {
					t.Fatalf("original RemoveLink(%v) store=%v arena=%v", l, got, want)
				}
			}
			requireEqual(t, "original after divergence", c, a)
			requireEqual(t, "clone after divergence", cp, cpa)
		})
	}
}
