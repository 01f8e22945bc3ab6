package ingest

import (
	"repro/internal/core"
	"repro/internal/corpus"
)

// Page is one crawlable document (alias of the batch-publish page so
// sources plug straight into the publish path).
type Page = core.BatchPage

// Source resolves a URL discovered by the crawler to its content and
// outgoing links. Resolve returns false for a dangling URL (a link that
// points outside the crawlable set). Crawl calls it on the caller's
// goroutine, once per frontier URL. Implementations must be pure:
// resolving the same URL twice returns the same page — a crawl is
// reproducible only if its source is.
type Source interface {
	Resolve(url string) (Page, bool)
}

// mapSource serves a fixed page set.
type mapSource map[string]Page

// MapSource builds a Source over an explicit page set. Later duplicates
// of a URL are ignored, keeping Resolve pure.
func MapSource(pages []Page) Source {
	m := make(mapSource, len(pages))
	for _, p := range pages {
		if _, ok := m[p.URL]; !ok {
			m[p.URL] = p
		}
	}
	return m
}

func (m mapSource) Resolve(url string) (Page, bool) {
	p, ok := m[url]
	return p, ok
}

// CorpusSource exposes a generated corpus as a crawlable web: every
// document resolves under its canonical URL with its link-graph edges.
func CorpusSource(c *corpus.Corpus) Source {
	pages := make([]Page, 0, len(c.Docs))
	for _, d := range c.Docs {
		pages = append(pages, Page{URL: d.URL, Text: d.Text, Links: d.Links})
	}
	return MapSource(pages)
}
