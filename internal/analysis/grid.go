package analysis

import (
	"fmt"
	"slices"
	"strings"

	"rfclos/internal/engine"
	"rfclos/internal/metrics"
	"rfclos/internal/rng"
)

// grid is the job grid every sweep exhibit runs: each group (one series
// name and its x values) runs every x reps times. Jobs are numbered
// group-major, then x, then rep; that index is what shards own and what
// observations are tagged with, so the grid is the one place a sweep
// exhibit indexes its jobs. Each job draws from
// rng.At(p.Seed, coords(job)...) and returns one value per column.
type grid struct {
	// p supplies the seed, the repetitions, the worker pool, the shard and
	// the progress sink.
	p      Params
	groups []gridGroup
	// defaultReps is the repetition count when p.Reps is unset.
	defaultReps int
	// cols names the values run returns. Each (group, column) pair is one
	// series, named "group/column", or just "group" for a one-column grid.
	cols []string
	// coords returns the job's stream coordinates. They are per exhibit:
	// each keeps the coordinates its streams have always had.
	coords func(gridJob) []uint64
	run    func(gridJob, *rng.Rand) ([]float64, error)
}

// gridGroup is one group of a grid: a series name and its x values.
type gridGroup struct {
	name string
	xs   []float64
}

// gridJob is one job of a grid: repetition rep of x in group g.
type gridJob struct {
	g   int
	x   float64
	rep int
}

// collect runs the jobs this shard owns on the worker pool and folds the
// values into one collector per series. Every job is Expected, so the row
// structure and the completeness counts are the unsharded run's, but only
// owned jobs are Observed. Progress, when set, gets one line per completed
// job. A repeated group name, or an x repeated within a group, would fold
// two points into one row, so collect refuses it before running anything.
func (gr grid) collect() (*seriesSet, error) {
	for g, grp := range gr.groups {
		for _, prev := range gr.groups[:g] {
			if prev.name == grp.name {
				return nil, fmt.Errorf("analysis: sweep group %q appears twice", grp.name)
			}
		}
		for i, x := range grp.xs {
			if slices.Contains(grp.xs[:i], x) {
				return nil, fmt.Errorf("analysis: sweep group %q repeats x = %g", grp.name, x)
			}
		}
	}
	var jobs []gridJob
	reps := gr.p.reps(gr.defaultReps)
	for g, grp := range gr.groups {
		for _, x := range grp.xs {
			for rep := 0; rep < reps; rep++ {
				jobs = append(jobs, gridJob{g: g, x: x, rep: rep})
			}
		}
	}
	vals, err := engine.RunShard(len(jobs), gr.p.Workers, gr.p.Shard, func(i int) ([]float64, error) {
		j := jobs[i]
		v, err := gr.run(j, rng.At(gr.p.seed(), gr.coords(j)...))
		if err == nil && gr.p.Progress != nil {
			gr.p.Progress(gr.line(j, v))
		}
		return v, err
	})
	if err != nil {
		return nil, err
	}
	set := &seriesSet{}
	cols := make([][]*metrics.JobCollector, len(gr.groups))
	for g, grp := range gr.groups {
		for _, c := range gr.cols {
			cols[g] = append(cols[g], set.col(gr.series(grp.name, c)))
		}
	}
	for i, j := range jobs {
		for c, col := range cols[j.g] {
			col.Expect(j.x)
			if gr.p.Shard.Owns(i) {
				col.Observe(j.x, i, vals[i][c])
			}
		}
	}
	return set, nil
}

// series names the series of one group's column.
func (gr grid) series(group, col string) string {
	if len(gr.cols) == 1 {
		return group
	}
	return group + "/" + col
}

// line renders a job's progress line: its row key, rep and values.
func (gr grid) line(j gridJob, v []float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s@%g rep=%d", gr.groups[j.g].name, j.x, j.rep)
	for c, col := range gr.cols {
		fmt.Fprintf(&b, " %s=%.3f", col, v[c])
	}
	return b.String()
}
