package lint

import (
	"go/build"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The fixture packages under testdata/src declare their expected
// diagnostics inline: a `//lintwant:<rule>` marker on a line means exactly
// one finding of that rule is expected there. Packages also contain
// non-firing and //rfclint:allow-suppressed cases, which must produce no
// findings — the set comparison below catches both missed and spurious
// diagnostics.

// fixtureConfig mirrors DefaultConfig but points the deterministic list at
// the fixture packages (freepkg is deliberately left off it).
func fixtureConfig(t *testing.T, module string) *Config {
	t.Helper()
	det := []string{"nondet", "maprange", "splitpar", "seedcoord", "leafsetpkg", "csrpkg", "flowpkg"}
	cfg := &Config{
		RngPkg:    module + "/internal/rng",
		EnginePkg: module + "/internal/engine",
	}
	for _, d := range det {
		cfg.Deterministic = append(cfg.Deterministic, module+"/internal/lint/testdata/src/"+d)
	}
	return cfg
}

func newTestLoader(t *testing.T) *Loader {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	ld, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	return ld
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
	ld := newTestLoader(t)
	cfg := fixtureConfig(t, ld.Module)
	for _, pkg := range []string{"nondet", "maprange", "splitpar", "seedcoord", "freepkg", "leafsetpkg", "csrpkg", "flowpkg"} {
		t.Run(pkg, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", pkg)
			findings, err := Run(cfg, ld, []string{dir})
			if err != nil {
				t.Fatal(err)
			}
			want := wantMarkers(t, dir)
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
	ld := newTestLoader(t)
	cfg := fixtureConfig(t, ld.Module)
	findings, err := Run(cfg, ld, []string{filepath.Join("testdata", "src", "nondet")})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) == 0 {
		t.Fatal("expected findings in the nondet fixture")
	}
	s := findings[0].String()
	if !strings.Contains(s, "bad.go:") || !strings.Contains(s, ": nondet-source: ") {
		t.Errorf("diagnostic %q not in file:line:col: rule: message form", s)
	}
}

// TestDefaultConfigPackagesExist guards the deterministic list against
// package moves: a renamed directory would otherwise silently drop out of
// the lint gate.
func TestDefaultConfigPackagesExist(t *testing.T) {
	ld := newTestLoader(t)
	cfg := DefaultConfig(ld.Module)
	for _, path := range cfg.Deterministic {
		dir := ld.dirOf(path)
		ok, err := hasGoFiles(dir)
		if err != nil || !ok {
			t.Errorf("deterministic package %s has no Go files at %s (err=%v)", path, dir, err)
		}
	}
	for _, path := range []string{cfg.RngPkg, cfg.EnginePkg} {
		if !cfg.IsDeterministic(path) {
			t.Errorf("%s is not on the deterministic list", path)
		}
	}
}

// TestDeterministicImportClosure pins the fact the per-function rules'
// coverage rests on: every module package a deterministic package imports
// is itself deterministic, or is internal/obs, whose API hands no time
// value back. So every function an exhibit Run or an rfcd handler can
// reach sits in a package the rules check. rfcd and rfcpaper, where
// responses and reports start, are held to the same closure.
func TestDeterministicImportClosure(t *testing.T) {
	ld := newTestLoader(t)
	cfg := DefaultConfig(ld.Module)
	obs := ld.Module + "/internal/obs"
	roots := append([]string{ld.Module + "/cmd/rfcd", ld.Module + "/cmd/rfcpaper"}, cfg.Deterministic...)
	for _, path := range roots {
		bp, err := build.ImportDir(ld.dirOf(path), 0)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, imp := range bp.Imports {
			inModule := imp == ld.Module || strings.HasPrefix(imp, ld.Module+"/")
			if inModule && imp != obs && !cfg.IsDeterministic(imp) {
				t.Errorf("%s imports %s, which is not deterministic", path, imp)
			}
		}
	}
}

// TestExpandSkipsTestdata checks the ./... walk never descends into
// testdata (the go tool convention), so fixture violations cannot fail a
// tree-wide run.
func TestExpandSkipsTestdata(t *testing.T) {
	ld := newTestLoader(t)
	dirs, err := Expand(ld.Root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("Expand found no packages")
	}
	for _, d := range dirs {
		if strings.Contains(filepath.ToSlash(d), "/testdata/") {
			t.Errorf("Expand descended into testdata: %s", d)
		}
	}
}

// TestSelfGate lints the analyzer and its command with the repository
// configuration: rfclint must hold itself to the rules it enforces.
func TestSelfGate(t *testing.T) {
	ld := newTestLoader(t)
	dirs := []string{
		filepath.Join(ld.Root, "internal", "lint"),
		filepath.Join(ld.Root, "cmd", "rfclint"),
	}
	findings, err := Run(DefaultConfig(ld.Module), ld, dirs)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// TestRepoClean is the in-tree determinism gate: the whole repository must
// lint clean, exactly as the scripts/lint.sh CI step enforces.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("tree-wide lint skipped under -short")
	}
	ld := newTestLoader(t)
	dirs, err := Expand(ld.Root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Run(DefaultConfig(ld.Module), ld, dirs)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
