package contracts

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/chain"
)

// PageRecord is the on-chain registration of one page version. The
// content itself lives in the DWeb store under CID; the chain holds the
// authoritative URL→CID binding and ownership.
type PageRecord struct {
	URL    string
	Owner  chain.Address
	CID    string // hex root CID in the content store
	Seq    uint64 // bumped on every re-publish
	Height uint64 // block height of the latest version
	Links  []string
}

// PublishParams registers or updates one page of a publish
// (PublishBatchParams). Provider is fetch advice,
// not a binding: the DWeb address of the peer that stores the content
// (the publisher's own device), which bees may ask for the blocks before
// provider discovery answers. The CID makes any source verifiable, so the
// chain records nothing about it beyond the task it rides on.
type PublishParams struct {
	URL      string
	CID      string
	Links    []string
	Provider string `json:",omitempty"`
}

// validatePublishLocked rejects a page registration the contract would
// refuse: empty URL/CID or an URL owned by a different account.
func (q *QueenBee) validatePublishLocked(sender chain.Address, p PublishParams) error {
	if p.URL == "" {
		return fmt.Errorf("queenbee: publish with empty URL")
	}
	if p.CID == "" {
		return fmt.Errorf("queenbee: publish %q with empty CID", p.URL)
	}
	if rec, exists := q.pages[p.URL]; exists && rec.Owner != sender {
		return fmt.Errorf("queenbee: %q is owned by %s", p.URL, rec.Owner.Short())
	}
	return nil
}

// registerPageLocked records one page version and emits its publish
// event; validation must already have passed. Returns the record.
func (q *QueenBee) registerPageLocked(ctx *chain.TxContext, p PublishParams) *PageRecord {
	rec, exists := q.pages[p.URL]
	if !exists {
		rec = &PageRecord{URL: p.URL, Owner: ctx.Sender}
		q.pages[p.URL] = rec
	}
	rec.Seq++
	rec.CID = p.CID
	rec.Height = ctx.Height
	rec.Links = append([]string(nil), p.Links...)
	// Every publish (new page or new version) dirties the link graph; the
	// next delta rank epoch snapshots and re-walks exactly this set.
	q.dirtyPages[p.URL] = true

	ctx.Emit(EventPublished, map[string]string{
		"url": p.URL,
		"cid": p.CID,
		"seq": strconv.FormatUint(rec.Seq, 10),
	})
	return rec
}

// PublishBatchParams registers one or more pages in one transaction,
// which creates a single index task: the assigned quorum builds one delta
// segment covering every page, so a round ingesting N pages costs one
// commit-reveal cycle instead of N. A single publish is a one-page batch.
type PublishBatchParams struct {
	Pages []PublishParams
}

// BatchEntry is one page version an index task covers, written into the
// task by the contract so every assignee fetches and indexes the same
// versions — from Provider first, when the publish named one.
type BatchEntry struct {
	URL      string
	CID      string
	Seq      uint64
	Provider string
}

// execPublishBatch atomically registers every page of the batch and
// creates one index task covering all of them. This is the paper's
// "no-crawling" path: the index update is triggered by the publish
// transaction itself. Validation runs over the whole batch before any
// state changes, so a rejected batch leaves no partial registrations
// behind.
func (q *QueenBee) execPublishBatch(ctx *chain.TxContext, params []byte) error {
	var p PublishBatchParams
	if err := chain.DecodeParams(params, &p); err != nil {
		return err
	}
	if len(p.Pages) == 0 {
		return fmt.Errorf("queenbee: publish-batch with no pages")
	}
	seen := make(map[string]bool, len(p.Pages))
	for _, page := range p.Pages {
		if err := q.validatePublishLocked(ctx.Sender, page); err != nil {
			return err
		}
		if seen[page.URL] {
			return fmt.Errorf("queenbee: publish-batch lists %q twice", page.URL)
		}
		seen[page.URL] = true
	}

	entries := make([]BatchEntry, 0, len(p.Pages))
	for _, page := range p.Pages {
		rec := q.registerPageLocked(ctx, page)
		entries = append(entries, BatchEntry{URL: page.URL, CID: page.CID, Seq: rec.Seq, Provider: page.Provider})
	}

	q.createTaskLocked(ctx, Task{ID: indexTaskID(ctx.Height, entries), Kind: TaskIndex, Pages: entries})
	return nil
}

// indexTaskID names an index task. A task covering one page version is
// idx:<url>:<seq>; any other hashes its page versions so two batches
// sealed at the same height get distinct, deterministic IDs. The provider
// is advice and stays out: the same page versions are the same task. The
// name seeds the task's quorum draw (createTaskLocked).
func indexTaskID(height uint64, entries []BatchEntry) string {
	if len(entries) == 1 {
		return fmt.Sprintf("idx:%s:%d", entries[0].URL, entries[0].Seq)
	}
	h := sha256.New()
	for _, e := range entries {
		fmt.Fprintf(h, "%s:%s:%d\n", e.URL, e.CID, e.Seq)
	}
	return fmt.Sprintf("idxb:%d:%s", height, hex.EncodeToString(h.Sum(nil)[:8]))
}

// Page returns the registration record for a URL (engine read path).
func (q *QueenBee) Page(url string) (PageRecord, bool) {
	q.mu.RLock()
	defer q.mu.RUnlock()
	rec, ok := q.pages[url]
	if !ok {
		return PageRecord{}, false
	}
	out := *rec
	out.Links = append([]string(nil), rec.Links...)
	return out, true
}

// Pages returns every registered URL, sorted.
func (q *QueenBee) Pages() []string {
	q.mu.RLock()
	defer q.mu.RUnlock()
	out := make([]string, 0, len(q.pages))
	for u := range q.pages {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// PageCount returns the number of registered pages.
func (q *QueenBee) PageCount() int {
	q.mu.RLock()
	defer q.mu.RUnlock()
	return len(q.pages)
}

// LinkGraph returns url → outgoing links for every registered page, the
// input to the page-rank computation.
func (q *QueenBee) LinkGraph() map[string][]string {
	q.mu.RLock()
	defer q.mu.RUnlock()
	out := make(map[string][]string, len(q.pages))
	for u, rec := range q.pages {
		out[u] = append([]string(nil), rec.Links...)
	}
	return out
}

// joinAddrs renders addresses for event attributes.
func joinAddrs(addrs []chain.Address) string {
	parts := make([]string, len(addrs))
	for i, a := range addrs {
		parts[i] = a.String()
	}
	return strings.Join(parts, ",")
}
