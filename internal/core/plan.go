package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/index"
	"repro/internal/netsim"
	"repro/internal/query"
)

// ErrShardUnavailable wraps failures to load an index shard from the
// DHT (node down, partition, byzantine segment bytes). Callers match
// with errors.Is.
var ErrShardUnavailable = errors.New("core: index shard unavailable")

// PlanMode selects how ExecuteCtx turns the raw query string into an AST.
type PlanMode int

// Plan modes.
const (
	// PlanParsed runs the full query language: AND/OR/NOT operators,
	// quoted phrases, site: prefix filters, parentheses.
	PlanParsed PlanMode = iota
	// PlanAll ANDs every analyzed term (flat; what Search runs).
	PlanAll
	// PlanAny ORs every analyzed term (flat).
	PlanAny
	// PlanPhrase matches every analyzed term as one adjacent phrase
	// (flat, positional postings).
	PlanPhrase
)

// String implements fmt.Stringer.
func (m PlanMode) String() string {
	switch m {
	case PlanParsed:
		return "parsed"
	case PlanAll:
		return "all"
	case PlanAny:
		return "any"
	case PlanPhrase:
		return "phrase"
	default:
		return fmt.Sprintf("PlanMode(%d)", int(m))
	}
}

// Query is one structured request against the frontend.
type Query struct {
	// Raw is the query string; how it is interpreted depends on Mode.
	Raw string
	// Mode defaults to PlanParsed (the full query language).
	Mode PlanMode
	// Limit caps the number of returned results — the page size.
	// Zero means 10.
	Limit int
	// Offset skips that many ranked results before collecting Limit
	// (Offset 20, Limit 10 is page 3).
	Offset int
	// Snippets fetches each result's content and attaches a snippet.
	Snippets bool
	// Explain records the executed plan, per-node candidate counts and
	// simulated costs into SearchResponse.Explain.
	Explain bool
	// Deadline bounds the query's simulated latency. Once the response's
	// accumulated simulated cost reaches it at a checkpoint — before each
	// sequential RPC of a wave leg, and between pipeline stages — the
	// remaining work is abandoned and the query fails with a typed
	// ErrDeadlineExceeded carrying a partial Explain trace. Deterministic:
	// the same seed and deadline stop at the same point every run. Zero
	// means no deadline.
	Deadline time.Duration
}

// ExplainNode is one executed plan node: the operator, its operand
// rendered as text, and how many candidate documents survived it.
type ExplainNode struct {
	Op         string // "term" | "phrase" | "and" | "or" | "not" | "site"
	Detail     string // the term, phrase, or URL prefix
	Candidates int
	Children   []*ExplainNode
}

// Explain is the structured execution trace of one query.
type Explain struct {
	Query string
	Mode  string
	// Terms lists every distinct analyzed term the plan loaded,
	// excluded terms included; Shards the distinct index shards those
	// terms hash to, fetched as one parallel wave.
	Terms  []string
	Shards []int
	// Plan is the executed operator tree with candidate counts.
	Plan *ExplainNode
	// Candidates counts documents surviving boolean evaluation;
	// Returned the results after ranking and pagination.
	Candidates int
	Returned   int
	// LoadCost is the shard wave; SnippetCost the parallel content
	// fetches (zero without snippets); TotalCost the two together.
	LoadCost    netsim.Cost
	SnippetCost netsim.Cost
	TotalCost   netsim.Cost
	// Partial marks a trace truncated by the request lifecycle (deadline
	// or cancellation): the costs cover only the work that actually ran,
	// and later stages may be missing entirely. Deadline-failed queries
	// always carry a partial trace, whether or not Explain was requested.
	Partial bool
	// DegradedShards lists the wave shards that stayed unreachable when
	// the answer was composed from a partial wave (Config.DegradedReads);
	// empty on a complete answer. Completeness is loaded/total wave
	// shards — 1.0 when the wave fully loaded.
	DegradedShards []int
	Completeness   float64
}

// String renders the trace as an indented plan tree for CLI output.
func (e *Explain) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan %q mode=%s terms=%v shards=%v\n", e.Query, e.Mode, e.Terms, e.Shards)
	writePlan(&b, e.Plan, 1)
	fmt.Fprintf(&b, "candidates=%d returned=%d\n", e.Candidates, e.Returned)
	fmt.Fprintf(&b, "cost: load=%v/%dB/%dmsg total=%v/%dB/%dmsg\n",
		e.LoadCost.Latency, e.LoadCost.Bytes, e.LoadCost.Msgs,
		e.TotalCost.Latency, e.TotalCost.Bytes, e.TotalCost.Msgs)
	return b.String()
}

func writePlan(b *strings.Builder, n *ExplainNode, depth int) {
	if n == nil {
		return
	}
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(n.Op)
	if n.Detail != "" {
		b.WriteByte(' ')
		b.WriteString(n.Detail)
	}
	fmt.Fprintf(b, " → %d docs\n", n.Candidates)
	for _, k := range n.Children {
		writePlan(b, k, depth+1)
	}
}

// ExecuteCtx runs one structured query through the full frontend
// pipeline: compile the AST (parse or flat-build per Mode), resolve the
// distinct shards it touches and load them as one wave (its legs run in
// shard order on this goroutine and are costed as parallel legs),
// evaluate the boolean plan over posting lists, rank with BM25×PageRank,
// paginate, and optionally attach snippets and the execution trace.
//
// The query carries a request lifecycle: the context and the query's
// simulated Deadline are threaded through every stage — the shard wave
// (each leg re-checks before every sequential RPC), scoring, and the
// snippet wave. A query stopped by either
// signal abandons its remaining wave members, keeps its caches
// consistent, and returns ErrDeadlineExceeded with a
// partial Explain trace (always attached on that path, Explain requested
// or not) costing exactly the work that ran. The deadline is a promise
// about simulated response time: a query whose completed work overruns
// it also fails — the simulated client was already gone — with the
// caches it warmed left in place.
func (f *Frontend) ExecuteCtx(ctx context.Context, q Query) (SearchResponse, error) {
	limit := q.Limit
	if limit <= 0 {
		limit = 10
	}
	offset := q.Offset
	if offset < 0 {
		offset = 0
	}
	bud := reqBudget{ctx: ctx, deadline: q.Deadline}

	var resp SearchResponse
	root, err := compileAST(q)
	if err != nil {
		return resp, err
	}
	allTerms, posTerms := query.Terms(root)
	resp.Terms = posTerms

	// Plan the shard wave: distinct shards in term-appearance order.
	shardOf := make(map[string]int, len(allTerms))
	shards := make([]int, 0, len(allTerms))
	seen := make(map[int]bool, len(allTerms))
	for _, term := range allTerms {
		shard := index.ShardOf(term, f.cluster.cfg.NumShards)
		shardOf[term] = shard
		if !seen[shard] {
			seen[shard] = true
			shards = append(shards, shard)
		}
	}

	var (
		plan                  *ExplainNode
		loadCost, snippetCost netsim.Cost
	)
	// trace is the Explain of the work done so far; each exit below
	// attaches it.
	trace := func() *Explain {
		return &Explain{
			Query:       q.Raw,
			Mode:        q.Mode.String(),
			Terms:       allTerms,
			Shards:      shards,
			Plan:        plan,
			Candidates:  resp.Total,
			Returned:    len(resp.Results),
			LoadCost:    loadCost,
			SnippetCost: snippetCost,
			TotalCost:   resp.Cost,
		}
	}
	// partialTrace attaches the trace and strips any composed payload:
	// the lifecycle ended before the response could have reached the
	// client.
	partialTrace := func(err error) (SearchResponse, error) {
		resp.Results, resp.Ads = nil, nil
		resp.Explain = trace()
		resp.Explain.Partial = true
		resp.Total = 0
		return resp, err
	}

	if err := bud.check(0); err != nil {
		return partialTrace(err)
	}
	segsByShard, waveCost, err := f.loadShardsCtx(bud, 0, shards)
	loadCost = waveCost
	resp.Cost = resp.Cost.Seq(loadCost)
	if err != nil {
		if lifecycleErr(err) {
			return partialTrace(asLifecycle(err))
		}
		if f.cluster.cfg.DegradedReads && len(segsByShard) > 0 {
			// Graceful degradation: some shards loaded, so compose a
			// partial answer with a typed warning instead of failing the
			// wave. Terms on the missing shards contribute no postings.
			var failed []int
			for _, s := range shards {
				if _, ok := segsByShard[s]; !ok {
					failed = append(failed, s)
				}
			}
			resp.Degraded = &Degraded{
				FailedShards: failed,
				Completeness: float64(len(segsByShard)) / float64(len(shards)),
				Cause:        err.Error(),
			}
		} else {
			// A failed wave still carries its accounting: every shard fetch
			// was in flight, so Explain (when requested) records the wave and
			// its full cost even though no results can be composed.
			if q.Explain {
				resp.Explain = trace()
			}
			return resp, fmt.Errorf("%w: %w", ErrShardUnavailable, err)
		}
	}
	// The wave completed; a deadline it overran still kills the query.
	if err := bud.check(resp.Cost.Latency); err != nil {
		return partialTrace(err)
	}
	var docs []index.DocID
	var direct *index.TermCursor
	if root.Kind == query.KindTerm {
		// Document-at-a-time fast path: a bare term needs no merged
		// posting map and no boolean evaluation. The cursor drives
		// scoring block by block, and Total comes straight from the
		// term's document frequency — no candidate list is ever
		// materialized, so skipped blocks are never even decoded.
		if seg, ok := segsByShard[shardOf[root.Term]]; ok {
			direct = seg.Cursor(root.Term)
		}
		if direct != nil {
			resp.Total = direct.DF()
		}
		if q.Explain {
			plan = &ExplainNode{Op: "term", Detail: root.Term, Candidates: resp.Total}
		}
	} else {
		merged := make(map[string]index.PostingList, len(allTerms))
		for _, term := range allTerms {
			if seg, ok := segsByShard[shardOf[term]]; ok {
				merged[term] = seg.Postings(term)
			}
		}
		ev := &evaluator{merged: merged, explain: q.Explain}
		if query.HasSite(root) {
			ev.docs = f.docs().byDoc
		}
		docs, plan = ev.eval(root)
		resp.Total = len(docs)
	}

	if resp.Total > 0 {
		if err := f.scoreAndCompose(bud, &resp, posTerms, segsByShard, docs, limit, offset, direct); err != nil {
			return partialTrace(err)
		}
	}
	if q.Snippets && len(resp.Results) > 0 {
		if snippetCost, err = f.attachSnippets(bud, &resp, posTerms); err != nil {
			return partialTrace(err)
		}
	}
	// The response must arrive within the deadline: final checkpoint
	// against the full simulated cost.
	if err := bud.check(resp.Cost.Latency); err != nil {
		return partialTrace(err)
	}
	if q.Explain {
		resp.Explain = trace()
		resp.Explain.Completeness = 1.0
		if resp.Degraded != nil {
			resp.Explain.DegradedShards = resp.Degraded.FailedShards
			resp.Explain.Completeness = resp.Degraded.Completeness
		}
	}
	return resp, nil
}

// compileAST turns the raw query string into the boolean AST, either
// through the parser (PlanParsed) or as one flat operator over the
// analyzed terms (the flat PlanAll/PlanAny/PlanPhrase modes, which treat
// operators and quotes as plain text).
func compileAST(q Query) (*query.Node, error) {
	if q.Mode == PlanParsed {
		return query.Parse(q.Raw)
	}
	terms := index.AnalyzeQuery(q.Raw)
	if len(terms) == 0 {
		return nil, fmt.Errorf("%w: %q", query.ErrEmptyQuery, q.Raw)
	}
	if len(terms) == 1 {
		return &query.Node{Kind: query.KindTerm, Term: terms[0]}, nil
	}
	if q.Mode == PlanPhrase {
		return &query.Node{Kind: query.KindPhrase, Terms: terms}, nil
	}
	kids := make([]*query.Node, len(terms))
	for i, t := range terms {
		kids[i] = &query.Node{Kind: query.KindTerm, Term: t}
	}
	kind := query.KindAnd
	if q.Mode == PlanAny {
		kind = query.KindOr
	}
	return &query.Node{Kind: kind, Kids: kids}, nil
}

// evaluator walks the AST bottom-up, producing sorted candidate doc
// lists per node and, when tracing, the matching ExplainNode tree.
type evaluator struct {
	merged  map[string]index.PostingList
	docs    map[index.DocID]docEntry // the frontend's docView; set iff the tree has site: filters
	explain bool
}

// node builds an ExplainNode, or nil when tracing is off.
func (ev *evaluator) node(op, detail string, candidates int, kids []*ExplainNode) *ExplainNode {
	if !ev.explain {
		return nil
	}
	return &ExplainNode{Op: op, Detail: detail, Candidates: candidates, Children: kids}
}

func (ev *evaluator) eval(n *query.Node) ([]index.DocID, *ExplainNode) {
	switch n.Kind {
	case query.KindTerm:
		docs := ev.merged[n.Term].Docs()
		return docs, ev.node("term", n.Term, len(docs), nil)
	case query.KindPhrase:
		return ev.evalPhrase(n)
	case query.KindOr:
		return ev.evalOr(n)
	case query.KindAnd:
		return ev.evalAnd(n)
	default:
		// KindNot and KindSite are handled inside evalAnd; the parser's
		// validation pass guarantees they never stand alone.
		return nil, ev.node(n.Kind.String(), "", 0, nil)
	}
}

func (ev *evaluator) evalPhrase(n *query.Node) ([]index.DocID, *ExplainNode) {
	detail := ""
	if ev.explain {
		detail = `"` + strings.Join(n.Terms, " ") + `"`
	}
	lists := make([][]index.DocID, 0, len(n.Terms))
	pls := make([]index.PostingList, 0, len(n.Terms))
	for _, t := range n.Terms {
		pl := ev.merged[t]
		if len(pl) == 0 {
			return nil, ev.node("phrase", detail, 0, nil)
		}
		lists = append(lists, pl.Docs())
		pls = append(pls, pl)
	}
	var out []index.DocID
	for _, d := range index.IntersectGallop(lists) {
		if index.PhraseMatch(d, pls) {
			out = append(out, d)
		}
	}
	return out, ev.node("phrase", detail, len(out), nil)
}

func (ev *evaluator) evalOr(n *query.Node) ([]index.DocID, *ExplainNode) {
	var kids []*ExplainNode
	lists := make([][]index.DocID, 0, len(n.Kids))
	for _, kid := range n.Kids {
		docs, kex := ev.eval(kid)
		if len(docs) > 0 {
			lists = append(lists, docs)
		}
		if kex != nil {
			kids = append(kids, kex)
		}
	}
	docs := index.Union(lists)
	return docs, ev.node("or", "", len(docs), kids)
}

// evalAnd intersects the conjunction's positive legs, then applies its
// subtractive legs: exclusions (set difference) and site: filters (URL
// prefix predicates, which also cover -site: exclusions).
func (ev *evaluator) evalAnd(n *query.Node) ([]index.DocID, *ExplainNode) {
	type siteFilter struct {
		prefix string
		keep   bool
		ex     *ExplainNode
	}
	var kids []*ExplainNode
	var lists [][]index.DocID
	var exclusions [][]index.DocID
	var filters []siteFilter
	for _, kid := range n.Kids {
		switch kid.Kind {
		case query.KindSite:
			fex := ev.node("site", kid.Prefix, 0, nil)
			filters = append(filters, siteFilter{prefix: kid.Prefix, keep: true, ex: fex})
			if fex != nil {
				kids = append(kids, fex)
			}
		case query.KindNot:
			inner := kid.Kids[0]
			if inner.Kind == query.KindSite {
				fex := ev.node("not", "site:"+inner.Prefix, 0, nil)
				filters = append(filters, siteFilter{prefix: inner.Prefix, keep: false, ex: fex})
				if fex != nil {
					kids = append(kids, fex)
				}
				continue
			}
			docs, childEx := ev.eval(inner)
			exclusions = append(exclusions, docs)
			if nex := ev.node("not", "", len(docs), []*ExplainNode{childEx}); nex != nil {
				kids = append(kids, nex)
			}
		default:
			docs, kex := ev.eval(kid)
			lists = append(lists, docs)
			if kex != nil {
				kids = append(kids, kex)
			}
		}
	}
	docs := intersect(lists)
	for _, x := range exclusions {
		if len(docs) == 0 {
			break
		}
		docs = index.Difference(docs, x)
	}
	for _, flt := range filters {
		docs = ev.filterSite(docs, flt.prefix, flt.keep)
		if flt.ex != nil {
			flt.ex.Candidates = len(docs)
		}
	}
	return docs, ev.node("and", "", len(docs), kids)
}

// intersect gallops over the positive conjunction legs.
func intersect(lists [][]index.DocID) []index.DocID {
	switch len(lists) {
	case 0:
		return nil
	case 1:
		return lists[0]
	}
	return index.IntersectGallop(lists)
}

// filterSite keeps (or, when keep is false, drops) the candidates whose
// URL starts with prefix, against the evaluator's URL snapshot. A DocID
// with no known URL never matches a prefix, so site: drops it and
// -site: keeps it.
func (ev *evaluator) filterSite(docs []index.DocID, prefix string, keep bool) []index.DocID {
	out := docs[:0:0]
	for _, d := range docs {
		if strings.HasPrefix(ev.docs[d].url, prefix) == keep {
			out = append(out, d)
		}
	}
	return out
}
