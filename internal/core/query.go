package core

import (
	"fmt"
	"strings"

	"repro/internal/index"
	"repro/internal/netsim"
)

// attachSnippets fetches each result's content and extracts a snippet
// around the first matched term. The per-result fetches are independent
// of each other, so — like the shard loads — they are costed as one
// parallel wave (Cost.Par): the slowest fetch, not the sum. Returns the
// wave's cost, which is also folded into resp.Cost.
//
// The budget is checked once before the wave (every member shares the
// wave's simulated launch instant, so the deadline cannot cut between
// members) and the context before each member — a cancelled request
// abandons the remaining fetches and returns the partial wave's cost
// with ErrDeadlineExceeded.
func (f *Frontend) attachSnippets(bud reqBudget, resp *SearchResponse, terms []string) (netsim.Cost, error) {
	var wave netsim.Cost
	abandon := func(err error) (netsim.Cost, error) {
		resp.Cost = resp.Cost.Seq(wave)
		return wave, err
	}
	if err := bud.check(resp.Cost.Latency); err != nil {
		return abandon(err)
	}
	for i := range resp.Results {
		if cerr := bud.context().Err(); cerr != nil {
			return abandon(fmt.Errorf("%w: %w", ErrDeadlineExceeded, cerr))
		}
		data, cost, err := f.FetchResult(resp.Results[i])
		wave = wave.Par(cost)
		if err != nil {
			continue
		}
		resp.Results[i].Snippet = Snippet(string(data), terms, 12)
	}
	resp.Cost = resp.Cost.Seq(wave)
	return wave, nil
}

// Snippet extracts a window of words around the first occurrence of any
// query term (after analysis), marking the match with «…» brackets.
func Snippet(text string, terms []string, window int) string {
	want := make(map[string]bool, len(terms))
	for _, t := range terms {
		want[t] = true
	}
	words := strings.Fields(text)
	matchIdx := -1
	for i, w := range words {
		toks := index.Analyze(w)
		if len(toks) == 1 && want[toks[0].Term] {
			matchIdx = i
			break
		}
	}
	if matchIdx < 0 {
		if len(words) > window {
			words = words[:window]
		}
		return strings.Join(words, " ")
	}
	lo := matchIdx - window/2
	if lo < 0 {
		lo = 0
	}
	hi := matchIdx + window/2 + 1
	if hi > len(words) {
		hi = len(words)
	}
	out := make([]string, 0, hi-lo)
	for i := lo; i < hi; i++ {
		if i == matchIdx {
			out = append(out, "«"+words[i]+"»")
		} else {
			out = append(out, words[i])
		}
	}
	return strings.Join(out, " ")
}
