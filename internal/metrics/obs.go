// Job-indexed observations: the mergeable unit behind sharded sweeps.
//
// A sweep's aggregates (mean, stddev) must come out byte-identical whether
// the jobs ran in one process or were split across shards and merged later.
// Floating-point addition is not associative, so carrying only (count, sum,
// sumsq) per shard is not enough — merging two partial sums changes the
// addition order and can flip the last bit of a mean. Instead each
// observation keeps the index of the job that produced it; re-summarizing
// the merged set in job-index order reproduces exactly the addition order of
// the unsharded run, and therefore exactly its bytes.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Obs is one observation tagged with the index of the job that produced it
// within its exhibit's deterministic job grid.
type Obs struct {
	Job int
	V   float64
}

// MergeObs combines observation sets from different shards: the union,
// deduplicated by job index, in ascending job order. Duplicate job indices
// are legal when they carry the same value (overlapping shards recompute
// identical values — jobs are pure functions of their coordinates) and
// collapse to a single entry; a duplicate with a different value means the
// sets come from different runs, and is an error.
func MergeObs(sets ...[]Obs) ([]Obs, error) {
	var all []Obs
	for _, s := range sets {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Job < all[j].Job })
	out := all[:0]
	for i, o := range all {
		if i > 0 && out[len(out)-1].Job == o.Job {
			if last := out[len(out)-1]; math.Float64bits(last.V) != math.Float64bits(o.V) {
				return nil, fmt.Errorf("metrics: job %d observed twice with different values (%v and %v)", o.Job, last.V, o.V)
			}
			continue
		}
		out = append(out, o)
	}
	return out, nil
}

// SummarizeObs folds the observations into a Summary in ascending job-index
// order, the order an unsharded run feeds its accumulators, so the resulting
// moments are bit-identical to the unsharded ones.
func SummarizeObs(obs []Obs) Summary {
	sorted := make([]Obs, len(obs))
	copy(sorted, obs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Job < sorted[j].Job })
	var s Summary
	for _, o := range sorted {
		s.Add(o.V)
	}
	return s
}

// JobCollector aggregates job-indexed observations per sweep coordinate x:
// Expect registers that a job feeds coordinate x (run or not — it sizes the
// completeness contract), Observe records the value of a job this process
// actually ran. Coordinates keep first-Expect order. The zero value is ready
// to use.
type JobCollector struct {
	order []float64
	cells map[float64]*jobCell
}

type jobCell struct {
	want int
	obs  []Obs
}

func (c *JobCollector) at(x float64) *jobCell {
	if c.cells == nil {
		c.cells = make(map[float64]*jobCell)
	}
	cell, ok := c.cells[x]
	if !ok {
		cell = &jobCell{}
		c.cells[x] = cell
		c.order = append(c.order, x)
	}
	return cell
}

// Expect declares that one job of the full (unsharded) grid feeds
// coordinate x.
func (c *JobCollector) Expect(x float64) { c.at(x).want++ }

// Observe records job's measured value at coordinate x.
func (c *JobCollector) Observe(x float64, job int, v float64) {
	cell := c.at(x)
	cell.obs = append(cell.obs, Obs{Job: job, V: v})
}

// Coords returns the distinct coordinates in first-Expect order.
func (c *JobCollector) Coords() []float64 { return c.order }

// At returns the observations recorded at x and the total number expected
// across all shards.
func (c *JobCollector) At(x float64) (obs []Obs, want int) {
	cell, ok := c.cells[x]
	if !ok {
		return nil, 0
	}
	return cell.obs, cell.want
}
