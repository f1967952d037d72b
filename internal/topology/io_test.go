package topology

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"
)

// closJSON is the schema WriteJSON streams. Links are [lower, upper]
// global switch id pairs.
type closJSON struct {
	Radix        int      `json:"radix"`
	TermsPerLeaf int      `json:"terms_per_leaf"`
	LevelSizes   []int    `json:"level_sizes"`
	Links        [][2]int `json:"links"`
}

// checkJSONDescribes decodes a WriteJSON document with encoding/json and
// checks it describes c: the same radix, terms per leaf, level sizes and
// links (compared as sorted lists, so a lost, extra or duplicated link
// fails).
func checkJSONDescribes(t *testing.T, c *Clos, doc []byte) {
	t.Helper()
	var got closJSON
	if err := json.Unmarshal(doc, &got); err != nil {
		t.Fatal(err)
	}
	if got.Radix != c.Radix || got.TermsPerLeaf != c.TermsPerLeaf {
		t.Errorf("radix, terms per leaf = %d, %d, want %d, %d", got.Radix, got.TermsPerLeaf, c.Radix, c.TermsPerLeaf)
	}
	sizes := make([]int, c.Levels())
	for lev := 1; lev <= c.Levels(); lev++ {
		sizes[lev-1] = c.LevelSize(lev)
	}
	if !slices.Equal(got.LevelSizes, sizes) {
		t.Errorf("level sizes = %v, want %v", got.LevelSizes, sizes)
	}
	want := make([][2]int, 0, c.Wires())
	for _, l := range c.Links() {
		want = append(want, [2]int{int(l.A), int(l.B)})
	}
	byPair := func(a, b [2]int) int { return slices.Compare(a[:], b[:]) }
	slices.SortFunc(want, byPair)
	slices.SortFunc(got.Links, byPair)
	if !slices.Equal(got.Links, want) {
		t.Errorf("decoded links (%d) differ from the network's (%d)", len(got.Links), len(want))
	}
}

func TestJSONRoundTrip(t *testing.T) {
	orig, err := NewCFT(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := orig.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkJSONDescribes(t, orig, buf.Bytes())
}

func TestWriteEdgeList(t *testing.T) {
	c, err := NewCFT(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != c.Wires() {
		t.Errorf("edge list has %d lines, want %d", len(lines), c.Wires())
	}
	if !strings.Contains(lines[0], " ") {
		t.Errorf("malformed line %q", lines[0])
	}
}

func TestWriteDOT(t *testing.T) {
	c, err := NewOFT(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "graph clos {") || !strings.HasSuffix(strings.TrimSpace(out), "}") {
		t.Errorf("malformed DOT output:\n%s", out)
	}
	if got := strings.Count(out, " -- "); got != c.Wires() {
		t.Errorf("DOT has %d edges, want %d", got, c.Wires())
	}
	if got := strings.Count(out, "rank=same"); got != c.Levels() {
		t.Errorf("DOT has %d ranks, want %d", got, c.Levels())
	}
}
