// Command perfbench is the repository's benchmark. It drives three
// workloads against programs built from the tree under test — a seeded
// request mix against a live rfcd (rfcd-query) and two rfcpaper exhibits
// (paper-fig12, paper-flowscale) — checks every output, and prints one JSON
// result line. With -trace 1 it instead replays all three workloads in
// process, timing calls into each layer, and reports per-layer numbers.
// See README.md in this directory; run it through run.sh, which builds
// everything first.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// env is one benchmark invocation's settings.
type env struct {
	root    string // source tree root: goldens and the tree hash
	bin     string // directory holding rfcd, rfcpaper and rfcmerge
	work    string // scratch directory inside the tree
	seed    uint64
	seconds time.Duration
}

func (e env) prog(name string) string { return filepath.Join(e.bin, name) }

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome accumulates one run's checked operations, metrics and sample
// summaries.
type outcome struct {
	attempted, failed int
	metrics           map[string]metric
	summaries         map[string]summary
	failures          []string
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, summaries: map[string]summary{}}
}

// set records a metric; samples, when given, are kept for provenance.
func (o *outcome) set(name, unit string, value float64, samples []float64) {
	o.metrics[name] = metric{Value: value, Unit: unit}
	if samples != nil {
		o.summaries[name] = summarize(samples)
	}
}

// check counts one checked output, failing it with the message when bad.
// The first 20 failure messages are kept for the provenance record.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if ok {
		return
	}
	o.failed++
	msg := fmt.Sprintf(format, args...)
	if len(o.failures) < 20 {
		o.failures = append(o.failures, msg)
	}
	fmt.Fprintln(os.Stderr, "perfbench: FAIL:", msg)
}

func (o *outcome) correct() bool { return o.failed == 0 }

var workloads = []string{"rfcd-query", "paper-fig12", "paper-flowscale"}

func main() {
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(workloads, ", "))
		seed     = flag.Uint64("seed", 7, "workload seed")
		seconds  = flag.Int("seconds", 25, "length of the timed window in seconds")
		trace    = flag.Int("trace", 0, "1 = traced in-process replay reporting per-layer metrics")
		root     = flag.String("root", ".", "root of the source tree under test")
		bin      = flag.String("bin", "", "directory with the built rfcd, rfcpaper and rfcmerge")
		work     = flag.String("work", "", "scratch directory (default <root>/.bench_build/work)")
	)
	flag.Parse()
	e := env{root: *root, bin: *bin, work: *work, seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	if e.work == "" {
		e.work = filepath.Join(e.root, ".bench_build", "work")
	}
	if e.bin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) || !slices.Contains(workloads, *workload) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload NAME -seed N -seconds S -trace 0|1 -bin DIR")
		os.Exit(2)
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	ctx := context.Background()
	var (
		o   *outcome
		err error
	)
	switch {
	case *trace == 1:
		o, err = traced(ctx, e)
	case *workload == "rfcd-query":
		o, err = runQuery(ctx, e)
	default:
		o, err = runExhibit(ctx, e, exhibitWorkloads[*workload])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := report(e, *workload, *trace, o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !o.correct() {
		os.Exit(1)
	}
}

// provenance identifies what was measured, where and when.
type provenance struct {
	Workload   string             `json:"workload"`
	Seed       uint64             `json:"seed"`
	Trace      int                `json:"trace"`
	Seconds    float64            `json:"seconds"`
	Commit     string             `json:"commit"`
	TreeSHA256 string             `json:"tree_sha256"`
	GoVersion  string             `json:"go_version"`
	NumCPU     int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Date       string             `json:"date"`
	Failures   []string           `json:"failures,omitempty"`
	Summaries  map[string]summary `json:"summaries"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report writes the provenance record to the scratch directory and prints
// it, then prints the result as the last line of standard output.
func report(e env, workload string, trace int, o *outcome) error {
	p := provenance{
		Workload: workload, Seed: e.seed, Trace: trace, Seconds: e.seconds.Seconds(),
		Commit: commit(e.root), TreeSHA256: treeHash(e.root),
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Date: time.Now().UTC().Format(time.RFC3339), Failures: o.failures, Summaries: o.summaries,
	}
	prov, err := json.Marshal(p)
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", workload, e.seed, trace)
	if err := os.WriteFile(filepath.Join(e.work, name), append(prov, '\n'), 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(result{Correct: o.correct(), Attempted: o.attempted, Failed: o.failed, Metrics: o.metrics})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", prov, line)
	return nil
}

// commit returns the checked-out git commit, or "unknown" outside a git
// work tree (the benchmark also runs on plain exports of the tree).
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// treeHash fingerprints the Go sources and module files of the tree, so a
// result names the code it measured even where there is no commit.
func treeHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}
