// Package exhibit is the registry of the paper's exhibits: one descriptor
// per figure/table/extension, each producing its Report from the shared run
// settings (analysis.Params) and the shape constants its entry pins. The
// registry is the single source of truth for the exhibit ids, their "all"
// execution order, the per-exhibit defaults the CLI help prints, and the
// shard-aware entry point rfcpaper, rfcmerge and the rfclos facade share.
package exhibit

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"rfclos/internal/analysis"
	"rfclos/internal/engine"
)

// Kind classifies an exhibit by how it computes: closed-form or sampled
// arithmetic (analytic), cycle-accurate simulation sweeps (sim), or
// fault-injection experiments (resiliency).
type Kind string

const (
	Analytic   Kind = "analytic"
	Sim        Kind = "sim"
	Resiliency Kind = "resiliency"
	// Flow marks exhibits computed by the flow-level max-min-fair backend
	// (internal/flow): exact per-flow rates from water-filling, no cycle
	// simulation, reaching scales the cycle engine cannot.
	Flow Kind = "flow"
)

// Result is the structured report an exhibit produces.
type Result = analysis.Report

// Exhibit describes one registered exhibit.
type Exhibit struct {
	// ID is the CLI name ("fig5", "table3", ...).
	ID string
	// Title is a one-line description of what the exhibit reproduces.
	Title string
	Kind  Kind
	// Defaults is the runner's analysis.*Defaults value, which Run applies.
	Defaults analysis.Params
	// Shapes, when set, renders the shapes the entry pins for the help.
	Shapes func() string
	// Run produces the exhibit's report for the given run settings.
	Run func(analysis.Params) (*Result, error)
}

var (
	ordered []*Exhibit
	byID    = map[string]*Exhibit{}
)

// register adds an exhibit; registration order defines the "all" execution
// order. Duplicate ids are a programming error.
func register(e Exhibit) {
	if _, dup := byID[e.ID]; dup {
		panic("exhibit: duplicate id " + e.ID)
	}
	if e.ID == "all" {
		panic(`exhibit: "all" is reserved`)
	}
	c := e
	inner := c.Run
	// Stamp provenance on every report so the JSON form and rfcmerge can
	// group partials, and refuse to mix runs, without side channels.
	c.Run = func(p analysis.Params) (*Result, error) {
		rep, err := inner(p)
		if rep != nil {
			rep.Exhibit = c.ID
			rep.Shard = p.Shard
			rep.Params = p.Stamp()
		}
		return rep, err
	}
	ordered = append(ordered, &c)
	byID[c.ID] = &c
}

// All returns the registered exhibits in registration ("all") order.
func All() []*Exhibit {
	return append([]*Exhibit(nil), ordered...)
}

// IDs returns the exhibit ids in registration order.
func IDs() []string {
	ids := make([]string, len(ordered))
	for i, e := range ordered {
		ids[i] = e.ID
	}
	return ids
}

// Lookup finds an exhibit by id.
func Lookup(id string) (*Exhibit, bool) {
	e, ok := byID[id]
	return e, ok
}

// Usage renders the -exhibit flag's value set, derived from the registry.
func Usage() string {
	return strings.Join(append(IDs(), "all"), "|")
}

// Help renders one line per exhibit (id, kind, title, defaults) for the
// CLI's extended help, in registration order with aligned columns.
func Help() string {
	w := 0
	for _, e := range ordered {
		if len(e.ID) > w {
			w = len(e.ID)
		}
	}
	var b strings.Builder
	for _, e := range ordered {
		fmt.Fprintf(&b, "  %-*s  %-10s  %s (defaults: %s)\n", w, e.ID, e.Kind, e.Title, e.defaults())
	}
	return b.String()
}

// defaults renders the scale, the shapes e pins, then the grid and count
// defaults, each from the value Run reads. A setting the runner leaves
// unset renders as "name=" or "name=0" and is left out.
func (e *Exhibit) defaults() string {
	d := e.Defaults
	s := []string{"scale=" + string(d.Scale), "", "loads=" + list[float64](d.Loads).String(),
		"reps=" + strconv.Itoa(d.Reps), "patterns=" + strings.Join(d.Patterns, ","), "trials=" + strconv.Itoa(d.Trials)}
	if e.Shapes != nil {
		s[1] = e.Shapes()
	}
	return strings.Join(slices.DeleteFunc(s, func(f string) bool {
		return f == "" || strings.HasSuffix(f, "=") || strings.HasSuffix(f, "=0")
	}), " ")
}

// list renders a list default in full up to four values, else as
// first..last; floats keep their decimal point (1.0).
type list[T int | float64] []T

func (l list[T]) String() string {
	if len(l) > 4 {
		return list[T]{l[0]}.String() + ".." + list[T]{l[len(l)-1]}.String()
	}
	s := make([]string, len(l))
	for i, v := range l {
		s[i] = strconv.FormatFloat(float64(v), 'f', -1, 64)
		if _, ok := any(v).(float64); ok && !strings.Contains(s[i], ".") {
			s[i] += ".0"
		}
	}
	return strings.Join(s, ",")
}

// Resolve maps an -exhibit argument to the exhibits to run: a single id, or
// every registered exhibit for "all". Unknown ids list the valid ones.
func Resolve(arg string) ([]*Exhibit, error) {
	if arg == "all" {
		return All(), nil
	}
	if e, ok := Lookup(arg); ok {
		return []*Exhibit{e}, nil
	}
	known := IDs()
	sort.Strings(known)
	return nil, fmt.Errorf("unknown exhibit %q (known: %s, all)", arg, strings.Join(known, ", "))
}

// ReportPath names an exhibit's JSON file in dir; sharded partials carry
// the shard in the name so any partition can land in one directory.
func ReportPath(dir, id string, sh engine.Shard) string {
	name := id + ".json"
	if sh.Enabled() {
		name = fmt.Sprintf("%s.shard%d-of-%d.json", id, sh.K, sh.N)
	}
	return filepath.Join(dir, name)
}

// WriteReport renders one finished report the way rfcpaper and rfcmerge
// print it: into dir as JSON (at ReportPath, from the report's own id and
// shard, noted on stderr unless quiet) when dir is set, else on stdout as
// JSON, CSV or aligned text.
func WriteReport(rep *Result, asCSV, asJSON bool, dir string, quiet bool) error {
	if dir != "" || asJSON {
		data, err := rep.JSON()
		if err != nil {
			return err
		}
		if dir == "" {
			fmt.Println(string(data))
			return nil
		}
		path := ReportPath(dir, rep.Exhibit, rep.Shard)
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		if !quiet {
			fmt.Fprintln(os.Stderr, "wrote", path)
		}
		return nil
	}
	if asCSV {
		fmt.Print(rep.CSV())
	} else {
		fmt.Println(rep.Format())
	}
	return nil
}
