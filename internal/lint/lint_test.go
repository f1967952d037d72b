package lint

import (
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
// the fixture packages (freepkg is deliberately left off it). serverpkg is
// listed as BOTH deterministic and a server package, proving the Server
// entry overrides the deterministic set.
func fixtureConfig(t *testing.T, module string) *Config {
	t.Helper()
	det := []string{"nondet", "maprange", "splitpar", "seedcoord", "serverpkg", "leafsetpkg", "csrpkg", "flowpkg"}
	cfg := &Config{
		Module:     module,
		Server:     []string{module + "/internal/lint/testdata/src/serverpkg"},
		AllowFiles: []string{"testdata/src/nondet/allowed_file.go"},
		RngPkg:     module + "/internal/rng",
		EnginePkg:  module + "/internal/engine",
		ExhibitPkg: module + "/internal/lint/testdata/src/puritypkg",
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
	for _, pkg := range []string{"nondet", "maprange", "splitpar", "seedcoord", "freepkg", "serverpkg", "leafsetpkg", "csrpkg", "flowpkg", "puritypkg"} {
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
	for _, path := range cfg.Server {
		dir := ld.dirOf(path)
		ok, err := hasGoFiles(dir)
		if err != nil || !ok {
			t.Errorf("server package %s has no Go files at %s (err=%v)", path, dir, err)
		}
	}
	for _, suf := range cfg.AllowFiles {
		if _, err := os.Stat(filepath.Join(ld.Root, filepath.FromSlash(suf))); err != nil {
			t.Errorf("allowlisted file %s missing: %v", suf, err)
		}
	}
	if ok, err := hasGoFiles(ld.dirOf(cfg.ExhibitPkg)); err != nil || !ok {
		t.Errorf("exhibit package %s has no Go files (err=%v)", cfg.ExhibitPkg, err)
	}
}

// TestServerOverridesDeterministic pins the precedence rule directly.
func TestServerOverridesDeterministic(t *testing.T) {
	cfg := &Config{
		Deterministic: []string{"m/a", "m/b"},
		Server:        []string{"m/b", "m/c"},
	}
	for path, want := range map[string]bool{
		"m/a": true,  // deterministic only
		"m/b": false, // both listed: Server wins
		"m/c": false, // server only
		"m/d": false, // unlisted
	} {
		if got := cfg.IsDeterministic(path); got != want {
			t.Errorf("IsDeterministic(%q) = %v, want %v", path, got, want)
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

// TestWitnessPath pins the diagnostic contract of handler-purity: every
// finding names its entry point and, for multi-hop reaches, carries the
// call chain so the report is checkable by eye.
func TestWitnessPath(t *testing.T) {
	ld := newTestLoader(t)
	cfg := fixtureConfig(t, ld.Module)
	findings, err := Run(cfg, ld, []string{filepath.Join("testdata", "src", "puritypkg")})
	if err != nil {
		t.Fatal(err)
	}
	var deep *Finding
	for i, f := range findings {
		if strings.HasSuffix(f.Pos.Filename, "handlers.go") && strings.Contains(f.Msg, "time.Since") {
			deep = &findings[i]
		}
	}
	if deep == nil {
		t.Fatal("no finding for the time.Since fact in handlerDeep's closure")
	}
	for _, want := range []string{
		"reached from HTTP handler puritypkg.handlerDeep",
		"via puritypkg.handlerDeep -> puritypkg.hop1 -> puritypkg.hop2",
		"pure function of (kind, params, seed)",
	} {
		if !strings.Contains(deep.Msg, want) {
			t.Errorf("witness diagnostic %q missing %q", deep.Msg, want)
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
