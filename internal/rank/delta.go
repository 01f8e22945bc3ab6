package rank

// deltaFallbackNum/Den: when the dirty closure covers at least 3/4 of
// the graph, a restricted iteration saves nothing over a warm full pass
// and the frozen-boundary approximation only adds error — fall back to
// ComputeFrom on the whole graph.
const (
	deltaFallbackNum = 3
	deltaFallbackDen = 4
)

// ComputeDelta re-ranks only the subgraph reachable from the dirty
// nodes, warm-started from prev; every node outside that closure keeps
// its prev rank ("frozen"). Frozen nodes still feed rank into the
// active set — their contributions are constant, so they are summed
// once up front rather than per iteration — but rank flowing from
// active nodes back out to frozen ones is not propagated. That is the
// approximation: the result can drift from a full recompute by the mass
// the closure exports, which is why callers schedule a periodic full
// epoch as the exactness escape hatch (every 4th epoch; see
// core.Cluster.StartRankEpochDelta).
//
// dirty holds node indices into g; it is sorted and deduplicated here,
// so callers may pass it in any order without affecting the result.
// Determinism: the closure is iterated as a sorted index slice, never
// map order — quorum bees must produce byte-identical rank entries.
//
// Special cases: an empty dirty set returns prev unchanged (zero
// iterations); a prev of the wrong length and a closure covering most
// of the graph both fall back to a full (warm) computation.
func ComputeDelta(g *Graph, prev []float64, dirty []int, opts Options) Result {
	n := g.Size()
	if n == 0 {
		return Result{}
	}
	fill(&opts)
	if len(prev) != n {
		return Compute(g, opts)
	}
	if len(dirty) == 0 {
		out := make([]float64, n)
		copy(out, prev)
		return Result{Ranks: out, Iterations: 0, Active: 0}
	}

	active := closure(g, dirty)
	if len(active)*deltaFallbackDen >= n*deltaFallbackNum {
		return ComputeFrom(g, prev, opts)
	}

	// pos maps global node index → position in the active slice (-1 for
	// frozen nodes).
	pos := make([]int, n)
	for i := range pos {
		pos[i] = -1
	}
	for p, i := range active {
		pos[i] = p
	}

	// One O(E) pass folds every frozen node's constant influence: link
	// mass into active targets and dangling mass redistributed to all.
	frozenIn := make([]float64, len(active))
	var frozenDangling float64
	for j := 0; j < n; j++ {
		if pos[j] >= 0 {
			continue
		}
		deg := g.OutDegree(j)
		if deg == 0 {
			frozenDangling += prev[j]
			continue
		}
		share := opts.Damping * prev[j] / float64(deg)
		for _, t := range g.out[j] {
			if p := pos[t]; p >= 0 {
				frozenIn[p] += share
			}
		}
	}

	cur := make([]float64, n)
	copy(cur, prev)
	next := make([]float64, len(active))
	var residuals []float64

	iters := 0
	for iter := 1; iter <= opts.MaxIters; iter++ {
		var activeDangling float64
		for _, i := range active {
			if g.OutDegree(i) == 0 {
				activeDangling += cur[i]
			}
		}
		base := (1-opts.Damping)/float64(n) +
			opts.Damping*(frozenDangling+activeDangling)/float64(n)

		for p := range next {
			next[p] = base + frozenIn[p]
		}
		for _, j := range active {
			deg := g.OutDegree(j)
			if deg == 0 {
				continue
			}
			share := opts.Damping * cur[j] / float64(deg)
			for _, t := range g.out[j] {
				if p := pos[t]; p >= 0 {
					next[p] += share
				}
			}
		}

		var res float64
		for p, i := range active {
			d := cur[i] - next[p]
			if d < 0 {
				d = -d
			}
			res += d
			cur[i] = next[p]
		}
		residuals = append(residuals, res)
		iters = iter
		if res < opts.Tolerance {
			break
		}
	}

	// Renormalize the composite vector to a probability distribution.
	// Restricted iteration conserves mass only approximately (rank the
	// closure exports to frozen successors leaks), and when the graph
	// grew since prev was computed, every frozen value still carries the
	// old graph's larger 1/n-scale uniform terms — a global rescale is
	// exactly the correction PageRank's distribution semantics allow.
	var sum float64
	for _, v := range cur {
		sum += v
	}
	if sum > 0 {
		for i := range cur {
			cur[i] /= sum
		}
	}
	return Result{Ranks: cur, Iterations: iters, Residuals: residuals, Active: len(active)}
}

// closure returns the sorted forward closure of the dirty set: every
// node whose rank can change when the dirty pages' links change.
func closure(g *Graph, dirty []int) []int {
	n := g.Size()
	seen := make([]bool, n)
	queue := make([]int, 0, len(dirty))
	for _, i := range dirty {
		if i < 0 || i >= n || seen[i] {
			continue
		}
		seen[i] = true
		queue = append(queue, i)
	}
	for len(queue) > 0 {
		j := queue[0]
		queue = queue[1:]
		for _, t := range g.out[j] {
			if !seen[t] {
				seen[t] = true
				queue = append(queue, int(t))
			}
		}
	}
	// Collecting by ascending scan yields the sorted order directly.
	var out []int
	for i := 0; i < n; i++ {
		if seen[i] {
			out = append(out, i)
		}
	}
	return out
}
