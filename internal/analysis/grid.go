package analysis

import (
	"fmt"
	"strings"

	"rfclos/internal/engine"
	"rfclos/internal/metrics"
	"rfclos/internal/rng"
)

// grid is the job grid every sweep exhibit runs: each group (one series
// name and its x values) runs every x reps times. Jobs are numbered
// group-major, then x, then rep; that index is what shards own and what
// observations are tagged with, so the grid is the one place a sweep
// exhibit indexes its jobs. Each job draws from rng.At(seed, coords(job)...)
// and returns one value per column.
type grid struct {
	groups []gridGroup
	reps   int
	// cols names the values run returns. Each (group, column) pair is one
	// series, named "group/column", or just "group" for a one-column grid.
	cols []string
	seed uint64
	// coords returns the job's stream coordinates. They are per exhibit:
	// each keeps the coordinates its streams have always had.
	coords func(gridJob) []uint64
	run    func(gridJob, *rng.Rand) ([]float64, error)

	workers  int
	shard    engine.Shard
	progress func(string)
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
// job.
func (gr grid) collect() (*seriesSet, error) {
	var jobs []gridJob
	for g, grp := range gr.groups {
		for _, x := range grp.xs {
			for rep := 0; rep < gr.reps; rep++ {
				jobs = append(jobs, gridJob{g: g, x: x, rep: rep})
			}
		}
	}
	vals, err := engine.RunShard(len(jobs), gr.workers, gr.shard, func(i int) ([]float64, error) {
		j := jobs[i]
		v, err := gr.run(j, rng.At(gr.seed, gr.coords(j)...))
		if err == nil && gr.progress != nil {
			gr.progress(gr.line(j, v))
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
			if gr.shard.Owns(i) {
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
