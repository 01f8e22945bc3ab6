package queenbee

import (
	"context"
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/query"
)

// Cost is the simulated network expense of an operation: wall-clock
// latency (parallel waves count their slowest leg, not the sum), bytes
// moved and messages exchanged. Aggregate serving throughput is measured
// against it — see BenchmarkConcurrentSearch and docs/serving.md.
type Cost = netsim.Cost

// Typed sentinel errors of the query surface. Match with errors.Is.
var (
	// ErrEmptyQuery means no searchable term survived analysis (empty
	// string, only stopwords, or only operators/filters).
	ErrEmptyQuery = query.ErrEmptyQuery
	// ErrBadSyntax means the query string does not parse, or combines
	// operators in a way the planner cannot execute (e.g. an exclusion
	// with no positive term).
	ErrBadSyntax = query.ErrBadSyntax
	// ErrShardUnavailable means an index shard could not be loaded from
	// the DHT (node down, partition, tampered segment).
	ErrShardUnavailable = core.ErrShardUnavailable
	// ErrDeadlineExceeded means the query's request lifecycle ended
	// first: its simulated deadline passed (Deadline) or its context
	// was cancelled. The response
	// carries a partial Explain trace costing exactly the work that ran.
	ErrDeadlineExceeded = core.ErrDeadlineExceeded
)

// ScoreStats counts the scoring work one query performed: postings
// actually scored or probed, and the blocks / candidate documents the
// block-max executor proved irrelevant and skipped without decoding
// (docs/serving.md, "Early termination"). Skips change only the work
// counted here — never the results.
type ScoreStats = core.ScoreStats

// Explain is the structured execution trace of one query: the analyzed
// terms, the shard wave, the executed plan tree with per-node candidate
// counts, and the simulated costs. Request one with QueryBuilder.Explain.
type Explain = core.Explain

// ExplainNode is one operator of an executed plan (see Explain).
type ExplainNode = core.ExplainNode

// Response is the full answer to a structured query. Total counts every
// document that matched before pagination — ceil(Total / pageSize) is
// the page count; Explain is non-nil when the builder requested a trace,
// Degraded when WithDegradedReads composed a partial answer.
type Response = core.SearchResponse

// QueryBuilder assembles one structured search fluently:
//
//	resp, err := engine.Query(`solar "wind turbine" OR panels -nuclear site:dweb://energy/`).
//		Page(2, 10).
//		WithSnippets().
//		Explain().
//		Run()
//
// The default mode parses the full query language: uppercase OR/AND
// operators, '-' exclusions, quoted phrases, site: URL-prefix filters,
// and parentheses (docs/query-language.md has the grammar). All, Any
// and Phrase switch to the flat legacy modes, which treat every one of
// those as plain text.
//
// Builders are single-use: configure, then Run once.
type QueryBuilder struct {
	engine    *Engine
	ctx       context.Context
	raw       string
	mode      core.PlanMode
	limit     int
	offset    int
	snippets  bool
	explainOn bool
	deadline  time.Duration
}

// Query starts a structured query over the deployment's index.
func (e *Engine) Query(raw string) *QueryBuilder {
	return &QueryBuilder{engine: e, raw: raw, limit: 10}
}

// QueryCtx is Query with a request lifecycle: cancelling ctx abandons
// the query's remaining simulated waves and Run fails with
// ErrDeadlineExceeded. Combine with Deadline for a simulated latency
// bound.
func (e *Engine) QueryCtx(ctx context.Context, raw string) *QueryBuilder {
	b := e.Query(raw)
	b.ctx = ctx
	return b
}

// All switches to the flat conjunctive mode: every analyzed term must
// match, operators and quotes are plain text (what Search always did).
func (b *QueryBuilder) All() *QueryBuilder {
	b.mode = core.PlanAll
	return b
}

// Any switches to the flat disjunctive mode: any analyzed term may
// match.
func (b *QueryBuilder) Any() *QueryBuilder {
	b.mode = core.PlanAny
	return b
}

// Phrase switches to the flat phrase mode: the analyzed terms must
// appear adjacent and in order (positional postings).
func (b *QueryBuilder) Phrase() *QueryBuilder {
	b.mode = core.PlanPhrase
	return b
}

// Limit caps the number of returned results. Equivalent to Page(1, k).
func (b *QueryBuilder) Limit(k int) *QueryBuilder {
	if k > 0 {
		b.limit = k
		b.offset = 0
	}
	return b
}

// Page selects page n (1-based) of the given size. Pages tile the
// ranked result list: disjoint, in rank order, and their union is the
// full result set. A non-positive size keeps the current page size
// (the default 10, or a prior Limit), so the page number still applies.
func (b *QueryBuilder) Page(n, size int) *QueryBuilder {
	if n < 1 {
		n = 1
	}
	if size <= 0 {
		size = b.limit
	}
	b.limit = size
	b.offset = (n - 1) * size
	return b
}

// WithSnippets attaches a text snippet around the first match of each
// result (costs one extra content fetch per result, modeled as a
// parallel wave).
func (b *QueryBuilder) WithSnippets() *QueryBuilder {
	b.snippets = true
	return b
}

// Explain records the executed plan — per-node candidate counts, the
// shard wave, simulated costs — into Response.Explain.
func (b *QueryBuilder) Explain() *QueryBuilder {
	b.explainOn = true
	return b
}

// Deadline bounds the query's simulated latency: once the accumulated
// simulated cost reaches d at a checkpoint, the remaining waves are
// abandoned and Run fails with ErrDeadlineExceeded plus a partial
// trace. Deterministic per seed. Zero (the default) sets no bound.
func (b *QueryBuilder) Deadline(d time.Duration) *QueryBuilder {
	if d > 0 {
		b.deadline = d
	}
	return b
}

// Run executes the query and composes the response.
//
// On ErrDeadlineExceeded the returned *Response is non-nil alongside
// the error: it carries no results — the simulated client was gone —
// but its Cost and Explain record the partial work that ran (serving
// surfaces return it as the 504 body). Every other error returns a nil
// response.
func (b *QueryBuilder) Run() (*Response, error) {
	ctx := b.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	resp, err := b.engine.pool.ExecuteCtx(ctx, core.Query{
		Raw:      b.raw,
		Mode:     b.mode,
		Limit:    b.limit,
		Offset:   b.offset,
		Snippets: b.snippets,
		Explain:  b.explainOn,
		Deadline: b.deadline,
	})
	if err != nil {
		if errors.Is(err, ErrDeadlineExceeded) {
			return &Response{Cost: resp.Cost, Explain: resp.Explain}, err
		}
		return nil, err
	}
	return &resp, nil
}
