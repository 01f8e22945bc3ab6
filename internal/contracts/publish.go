package contracts

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
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

// PublishParams registers or updates a page. Provider is fetch advice,
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

// execPublish records the page version and creates an index task assigned
// to a quorum of worker bees. This is the paper's "no-crawling" path: the
// index update is triggered by the publish transaction itself.
func (q *QueenBee) execPublish(ctx *chain.TxContext, params []byte) error {
	var p PublishParams
	if err := chain.DecodeParams(params, &p); err != nil {
		return err
	}
	if err := q.validatePublishLocked(ctx.Sender, p); err != nil {
		return err
	}
	rec := q.registerPageLocked(ctx, p)

	taskID := fmt.Sprintf("idx:%s:%d", p.URL, rec.Seq)
	meta := map[string]string{
		"url": p.URL,
		"cid": p.CID,
		"seq": strconv.FormatUint(rec.Seq, 10),
	}
	if p.Provider != "" {
		meta["provider"] = p.Provider
	}
	q.createTaskLocked(ctx, taskID, TaskIndex, meta)
	return nil
}

// PublishBatchParams registers many pages in one transaction. The batch
// produces a single index task: the assigned quorum builds one delta
// segment covering every page, so a round ingesting N pages costs one
// commit-reveal cycle instead of N.
type PublishBatchParams struct {
	Pages []PublishParams
}

// BatchEntry is one page of a batch index task, carried in the task's
// meta so every assignee fetches and indexes the same page versions —
// from Provider first, when the publish named one.
type BatchEntry struct {
	URL      string `json:"url"`
	CID      string `json:"cid"`
	Seq      uint64 `json:"seq"`
	Provider string `json:"provider,omitempty"`
}

// batchMetaKey holds the JSON-encoded []BatchEntry on a batch task.
const batchMetaKey = "batch"

// EncodeBatchEntries serializes batch entries for task meta.
func EncodeBatchEntries(entries []BatchEntry) string {
	b, err := json.Marshal(entries)
	if err != nil {
		panic(fmt.Sprintf("queenbee: encoding batch entries: %v", err))
	}
	return string(b)
}

// BatchEntries decodes a task's batch page list. ok is false when the
// task is not a batch task.
func BatchEntries(t Task) ([]BatchEntry, bool) {
	raw, isBatch := t.Meta[batchMetaKey]
	if !isBatch {
		return nil, false
	}
	var entries []BatchEntry
	if err := json.Unmarshal([]byte(raw), &entries); err != nil {
		return nil, false
	}
	return entries, true
}

// execPublishBatch atomically registers every page of the batch and
// creates one index task covering all of them. Validation runs over the
// whole batch before any state changes, so a rejected batch leaves no
// partial registrations behind.
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

	// The task ID hashes the batch contents so two batches sealed at the
	// same height get distinct, deterministic IDs. The provider is advice
	// and stays out: the same page versions are the same task.
	h := sha256.New()
	for _, e := range entries {
		fmt.Fprintf(h, "%s:%s:%d\n", e.URL, e.CID, e.Seq)
	}
	taskID := fmt.Sprintf("idxb:%d:%s", ctx.Height, hex.EncodeToString(h.Sum(nil)[:8]))
	q.createTaskLocked(ctx, taskID, TaskIndex, map[string]string{
		batchMetaKey: EncodeBatchEntries(entries),
	})
	return nil
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
