package analysis

import (
	"fmt"

	"rfclos/internal/metrics"
)

// seriesSet assembles the (series, x, value, stddev) reports the sweep
// exhibits emit, from job-indexed observations, replacing the old
// pre-rendered seriesReport helper. Series keep first-col order and
// coordinates first-Expect order, so rows come out in exactly the order the
// unsharded accumulation produced them; each (series, x) row carries
// mergeable mean/std aggregate cells keyed "series@x".
type seriesSet struct {
	names []string
	cols  map[string]*metrics.JobCollector
}

// col returns (creating on first use) the collector for one series.
func (s *seriesSet) col(name string) *metrics.JobCollector {
	if s.cols == nil {
		s.cols = make(map[string]*metrics.JobCollector)
	}
	c, ok := s.cols[name]
	if !ok {
		c = &metrics.JobCollector{}
		s.cols[name] = c
		s.names = append(s.names, name)
	}
	return c
}

// report renders the set with columns (series, x, y, stddev).
func (s *seriesSet) report(title string, notes []string, xName, yName string) *Report {
	r := &Report{
		Title:  title,
		Notes:  notes,
		Header: []string{"series", xName, yName, "stddev"},
	}
	for _, name := range s.names {
		c := s.cols[name]
		for _, x := range c.Coords() {
			obs, want := c.At(x)
			r.AddKeyed(fmt.Sprintf("%s@%g", name, x),
				Str(name), Float(x, "%g"), Mean(obs, want, "%.4f"), Std(obs, want, "%.4f"))
		}
	}
	return r
}

// mean returns the mean cell of one series at x, for the exhibits that
// print a grid as a table.
func (s *seriesSet) mean(series string, x float64, format string) Cell {
	obs, want := s.cols[series].At(x)
	return Mean(obs, want, format)
}
