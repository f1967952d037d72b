package exhibit

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rfclos/internal/analysis"
	"rfclos/internal/engine"
)

// wantOrder is the published "all" execution order; a registry reshuffle is
// an observable CLI change and must be deliberate.
var wantOrder = []string{
	"fig5", "fig6", "fig7", "costs", "thm42", "fig8", "fig9", "fig10",
	"fig11", "fig12", "ablation", "structure", "adversarial", "tables",
	"jellyfish", "rrnfaults", "hotspot", "incast", "elephants", "storm",
	"flowscale", "table3",
}

func TestRegistryOrder(t *testing.T) {
	ids := IDs()
	if len(ids) != len(wantOrder) {
		t.Fatalf("registry has %d exhibits, want %d: %v", len(ids), len(wantOrder), ids)
	}
	for i, id := range wantOrder {
		if ids[i] != id {
			t.Errorf("IDs()[%d] = %q, want %q", i, ids[i], id)
		}
	}
}

func TestResolveRoundTrip(t *testing.T) {
	// Every registered id resolves to exactly itself...
	for _, e := range All() {
		got, err := Resolve(e.ID)
		if err != nil || len(got) != 1 || got[0].ID != e.ID {
			t.Errorf("Resolve(%q) = %v, %v", e.ID, got, err)
		}
		if e.Title == "" || e.Kind == "" {
			t.Errorf("exhibit %q missing title or kind", e.ID)
		}
	}
	// ..."all" resolves to the whole registry in order...
	all, err := Resolve("all")
	if err != nil || len(all) != len(wantOrder) {
		t.Fatalf("Resolve(all) = %d exhibits, %v", len(all), err)
	}
	for i, e := range all {
		if e.ID != wantOrder[i] {
			t.Errorf("Resolve(all)[%d] = %q, want %q", i, e.ID, wantOrder[i])
		}
	}
	// ...and unknown ids fail with the candidates listed.
	if _, err := Resolve("fig99"); err == nil || !strings.Contains(err.Error(), "fig5") {
		t.Errorf("Resolve(fig99) = %v, want error listing known ids", err)
	}
}

func TestUsageListsEveryID(t *testing.T) {
	u := Usage()
	for _, id := range wantOrder {
		if !strings.Contains(u, id) {
			t.Errorf("Usage() missing %q: %s", id, u)
		}
	}
	if !strings.HasSuffix(u, "|all") {
		t.Errorf("Usage() must end with |all: %s", u)
	}
	// The golden pins every default -list prints, so a changed default or
	// a help line that stops reading it shows up here.
	if got, want := Help(), readGolden(t, "help"); got != want {
		t.Errorf("Help() differs from golden help.txt\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestRunStampsProvenance(t *testing.T) {
	e, ok := Lookup("fig5")
	if !ok {
		t.Fatal("fig5 not registered")
	}
	sh := engine.Shard{K: 1, N: 2}
	rep, err := e.Run(analysis.Params{Seed: 1, Shard: sh})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Exhibit != "fig5" {
		t.Errorf("Exhibit = %q, want fig5", rep.Exhibit)
	}
	if rep.Shard != sh {
		t.Errorf("Shard = %v, want %v", rep.Shard, sh)
	}
	if want := (analysis.Params{Seed: 1}).Stamp(); rep.Params != want {
		t.Errorf("Params = %q, want %q", rep.Params, want)
	}
}

// TestParamsStampCoversEveryField sets each Params field in turn and checks
// the stamp changes for all but the three a report does not depend on, so
// a field added later cannot slip past the merge check unstamped.
func TestParamsStampCoversEveryField(t *testing.T) {
	unstamped := map[string]bool{"Workers": true, "Progress": true, "Shard": true}
	base := analysis.Params{}.Stamp()
	typ := reflect.TypeOf(analysis.Params{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		var p analysis.Params
		v := reflect.ValueOf(&p).Elem().Field(i)
		switch v.Kind() {
		case reflect.String:
			v.SetString("x")
		case reflect.Int, reflect.Uint64:
			if v.CanInt() {
				v.SetInt(3)
			} else {
				v.SetUint(3)
			}
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Slice:
			v.Set(reflect.MakeSlice(f.Type, 1, 1))
			if e := v.Index(0); e.Kind() == reflect.String {
				e.SetString("x")
			}
		case reflect.Func:
			v.Set(reflect.ValueOf(func(string) {}))
		case reflect.Struct:
			v.Field(0).SetInt(1)
		default:
			t.Fatalf("field %s: kind %s not covered by this test", f.Name, v.Kind())
		}
		if changed := p.Stamp() != base; changed == unstamped[f.Name] {
			t.Errorf("field %s: stamp changed = %v, want %v", f.Name, changed, !unstamped[f.Name])
		}
	}
}

// TestReportPathEncodesShard pins the JSON file names rfcpaper -out and
// rfcmerge -out write: the bare id unsharded, the shard in the name else.
func TestReportPathEncodesShard(t *testing.T) {
	if got := ReportPath("parts", "fig8", engine.Shard{}); got != filepath.Join("parts", "fig8.json") {
		t.Errorf("unsharded ReportPath = %q", got)
	}
	if got := ReportPath("parts", "fig8", engine.Shard{K: 1, N: 2}); got != filepath.Join("parts", "fig8.shard1-of-2.json") {
		t.Errorf("sharded ReportPath = %q", got)
	}
}
