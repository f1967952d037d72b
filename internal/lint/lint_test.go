package lint

import (
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The fixture packages under testdata/src declare their expected
// diagnostics inline: a `//lintwant:<rule>` marker on a line means exactly
// one finding of that rule is expected there. Packages also contain
// non-firing cases, which must produce no findings — the set comparison
// below catches both missed and spurious diagnostics.

// fixtures are the fixture packages TestFixtures checks.
var fixtures = []string{"maprange", "splitpar", "seedcoord", "freepkg", "leafsetpkg", "csrpkg", "flowpkg"}

// fixtureConfig mirrors DefaultConfig but points the deterministic list at
// the fixture packages (freepkg is deliberately left off it).
func fixtureConfig(module string) *Config {
	cfg := &Config{
		RngPkg:    module + "/internal/rng",
		EnginePkg: module + "/internal/engine",
	}
	for _, d := range fixtures {
		if d != "freepkg" {
			cfg.Deterministic = append(cfg.Deterministic, module+"/internal/lint/testdata/src/"+d)
		}
	}
	return cfg
}

// loadFixtures loads the named fixture packages, in the given order.
func loadFixtures(t *testing.T, names ...string) []*Package {
	t.Helper()
	patterns := make([]string, len(names))
	for i, n := range names {
		patterns[i] = "./testdata/src/" + n
	}
	pkgs, err := Load(".", patterns...)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != len(names) {
		t.Fatalf("loaded %d packages for %d fixtures", len(pkgs), len(names))
	}
	byName := map[string]*Package{}
	for _, p := range pkgs {
		byName[filepath.Base(p.Path)] = p
	}
	for i, n := range names {
		pkgs[i] = byName[n]
	}
	return pkgs
}

// loadRepo loads the whole module ("./..." from its root) once for every
// test that needs it.
var loadRepo = sync.OnceValues(func() ([]*Package, error) { return Load("../..", "./...") })

// repoPackages returns the module's packages, and the same indexed by
// import path.
func repoPackages(t *testing.T) ([]*Package, map[string]*Package) {
	t.Helper()
	pkgs, err := loadRepo()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("./... matched no packages")
	}
	byPath := map[string]*Package{}
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	return pkgs, byPath
}

// wantMarkers scans a fixture directory for //lintwant markers and returns
// the expected finding keys ("file:line:rule", file absolute).
func wantMarkers(t *testing.T, dir string) map[string]bool {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	entries, err := os.ReadDir(abs)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(abs, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			rest := line
			for {
				idx := strings.Index(rest, "//lintwant:")
				if idx < 0 {
					break
				}
				rest = rest[idx+len("//lintwant:"):]
				rule := rest
				if j := strings.IndexAny(rule, " \t"); j >= 0 {
					rule = rule[:j]
				}
				want[path+":"+itoa(i+1)+":"+rule] = true
			}
		}
	}
	return want
}

func itoa(n int) string { return strconv.Itoa(n) }

func findingKeys(findings []Finding) map[string]bool {
	got := map[string]bool{}
	for _, f := range findings {
		got[f.Pos.Filename+":"+itoa(f.Pos.Line)+":"+f.Rule] = true
	}
	return got
}

func sortedSet(s map[string]bool) []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestFixtures(t *testing.T) {
	pkgs := loadFixtures(t, fixtures...)
	cfg := fixtureConfig(pkgs[0].Module)
	for i, name := range fixtures {
		t.Run(name, func(t *testing.T) {
			findings := Run(cfg, pkgs[i:i+1])
			want := wantMarkers(t, filepath.Join("testdata", "src", name))
			got := findingKeys(findings)
			for _, k := range sortedSet(want) {
				if !got[k] {
					t.Errorf("missing expected finding %s", k)
				}
			}
			for _, k := range sortedSet(got) {
				if !want[k] {
					t.Errorf("unexpected finding %s", k)
				}
			}
		})
	}
}

// TestFindingString pins the file:line:col: rule: message diagnostic form
// CI and editors rely on.
func TestFindingString(t *testing.T) {
	pkgs := loadFixtures(t, "maprange")
	findings := Run(fixtureConfig(pkgs[0].Module), pkgs)
	if len(findings) == 0 {
		t.Fatal("expected findings in the maprange fixture")
	}
	s := findings[0].String()
	if !strings.Contains(s, "bad.go:") || !strings.Contains(s, ": map-range-order: ") {
		t.Errorf("diagnostic %q not in file:line:col: rule: message form", s)
	}
}

// TestLoadRefusesTypeErrors pins the property the gate rests on: go list
// -e carries on past a package that does not compile, so Load itself must
// fail on one, naming it, rather than lint the rest of the tree clean.
func TestLoadRefusesTypeErrors(t *testing.T) {
	_, err := Load(".", "./testdata/src/maprange", "./testdata/src/broken")
	if err == nil {
		t.Fatal("loading a package with a type error succeeded")
	}
	if !strings.Contains(err.Error(), "testdata/src/broken") {
		t.Errorf("error %q does not name the broken package", err)
	}
}

// TestDefaultConfigPackagesExist guards the deterministic list against
// package moves: a renamed directory would otherwise silently drop out of
// the lint gate.
func TestDefaultConfigPackagesExist(t *testing.T) {
	pkgs, byPath := repoPackages(t)
	cfg := DefaultConfig(pkgs[0].Module)
	for _, path := range cfg.Deterministic {
		if byPath[path] == nil {
			t.Errorf("deterministic package %s is not in the ./... listing", path)
		}
	}
	for _, path := range []string{cfg.RngPkg, cfg.EnginePkg} {
		if !cfg.IsDeterministic(path) {
			t.Errorf("%s is not on the deterministic list", path)
		}
	}
}

// nondetImports are the packages no deterministic package may import: all
// randomness comes from internal/rng streams derived from a seed and job
// coordinates, and no result may depend on the wall clock.
var nondetImports = []string{"math/rand", "math/rand/v2", "crypto/rand", "time"}

// TestDeterministicImportClosure pins the facts the per-function rules'
// coverage and the determinism contract rest on. Every module package a
// deterministic package imports is itself deterministic, or is
// internal/obs, whose API hands no time value back, so every function an
// exhibit Run or an rfcd handler can reach sits in a package the rules
// check; rfcd and rfcpaper, where responses and reports start, are held to
// the same closure. And no deterministic package imports math/rand,
// crypto/rand or time, so none can draw OS entropy or read the clock.
func TestDeterministicImportClosure(t *testing.T) {
	pkgs, byPath := repoPackages(t)
	module := pkgs[0].Module
	cfg := DefaultConfig(module)
	obs := module + "/internal/obs"
	roots := append([]string{module + "/cmd/rfcd", module + "/cmd/rfcpaper"}, cfg.Deterministic...)
	for _, path := range roots {
		p := byPath[path]
		if p == nil {
			t.Fatalf("%s is not in the ./... listing", path)
		}
		for _, imp := range p.Imports {
			inModule := imp == module || strings.HasPrefix(imp, module+"/")
			if inModule && imp != obs && !cfg.IsDeterministic(imp) {
				t.Errorf("%s imports %s, which is not deterministic", path, imp)
			}
			if cfg.IsDeterministic(path) && slices.Contains(nondetImports, imp) {
				t.Errorf("deterministic package %s imports %s", path, imp)
			}
		}
	}
}

// TestLoadSkipsTestdata checks that a ./... load never includes a package
// under testdata (the go tool convention), so fixture violations and the
// broken fixture cannot fail a tree-wide run.
func TestLoadSkipsTestdata(t *testing.T) {
	pkgs, _ := repoPackages(t)
	for _, p := range pkgs {
		if strings.Contains(p.Path, "/testdata/") {
			t.Errorf("./... loaded a testdata package: %s", p.Path)
		}
	}
}

// TestSelfGate lints the analyzer and its command with the repository
// configuration: rfclint must hold itself to the rules it enforces.
func TestSelfGate(t *testing.T) {
	pkgs, byPath := repoPackages(t)
	module := pkgs[0].Module
	self := []*Package{byPath[module+"/internal/lint"], byPath[module+"/cmd/rfclint"]}
	if self[0] == nil || self[1] == nil {
		t.Fatal("internal/lint or cmd/rfclint is not in the ./... listing")
	}
	for _, f := range Run(DefaultConfig(module), self) {
		t.Errorf("%s", f)
	}
}

// TestRepoClean is the in-tree determinism gate: the whole repository must
// lint clean, exactly as the scripts/lint.sh CI step enforces.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("tree-wide lint skipped under -short")
	}
	pkgs, _ := repoPackages(t)
	for _, f := range Run(DefaultConfig(pkgs[0].Module), pkgs) {
		t.Errorf("%s", f)
	}
}
