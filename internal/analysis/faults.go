package analysis

import (
	"rfclos/internal/engine"
	"rfclos/internal/graph"
	"rfclos/internal/metrics"
	"rfclos/internal/rng"
	"rfclos/internal/routing"
	"rfclos/internal/topology"
)

// FaultsToDisconnect returns how many link removals, in the given uniformly
// random order, it takes to disconnect g (the Table 3 / Slim Fly §39
// measure). Rather than re-checking connectivity after every removal, it
// adds edges back in reverse order with a union-find and reports the first
// prefix of removals whose complement is disconnected.
func FaultsToDisconnect(g *graph.Graph, r *rng.Rand) int {
	edges := g.Edges()
	m := len(edges)
	r.Shuffle(m, func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	uf := graph.NewUnionFind(g.N())
	// Walk backwards: after adding edges[j..m-1], the graph equals the
	// network with the first j removals applied. Scanning j downward finds
	// the largest j whose suffix is connected, so j removals leave the
	// network connected and removal j+1 disconnects it.
	for j := m - 1; j >= 0; j-- {
		uf.Union(int(edges[j].U), int(edges[j].V))
		if uf.Count() == 1 {
			return j + 1
		}
	}
	return 0
}

// trialObs runs p.Shard's slice of the Monte-Carlo trials on p.Workers
// workers, trial i measuring on its own stream rng.At(seed, i), and returns
// the owned outcomes as job-indexed observations in trial order, ready for
// a mergeable Mean cell. Unowned trials never run.
func trialObs(p Params, trials int, seed uint64, measure func(*rng.Rand) (float64, error)) ([]metrics.Obs, error) {
	vals, err := engine.RunShard(trials, p.Workers, p.Shard, func(i int) (float64, error) {
		return measure(rng.At(seed, uint64(i)))
	})
	if err != nil {
		return nil, err
	}
	obs := make([]metrics.Obs, 0, len(vals))
	for i, v := range vals {
		if p.Shard.Owns(i) {
			obs = append(obs, metrics.Obs{Job: i, V: v})
		}
	}
	return obs, nil
}

// FaultsUntilUpDownLost returns the number of random link removals a folded
// Clos tolerates before some leaf pair loses its up/down path (the Figure 11
// measure), for one random removal order. It binary-searches the removal
// prefix, rebuilding routing state per probe.
func FaultsUntilUpDownLost(c *topology.Clos, r *rng.Rand) int {
	links := c.Links()
	m := len(links)
	r.Shuffle(m, func(i, j int) { links[i], links[j] = links[j], links[i] })
	routableAfter := func(k int) bool {
		probe := c.Clone()
		for _, l := range links[:k] {
			probe.RemoveLink(l.A, l.B)
		}
		return routing.New(probe).Routable()
	}
	// Invariant: routable after lo removals, not routable after hi.
	lo, hi := 0, m
	if routableAfter(m) {
		return m
	}
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if routableAfter(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// RemoveRandomLinks deletes n uniformly random links from c (in place) and
// returns the removed links.
func RemoveRandomLinks(c *topology.Clos, n int, r *rng.Rand) []topology.Link {
	links := c.Links()
	r.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
	if n > len(links) {
		n = len(links)
	}
	for _, l := range links[:n] {
		c.RemoveLink(l.A, l.B)
	}
	return links[:n]
}
