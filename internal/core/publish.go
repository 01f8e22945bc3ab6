package core

import (
	"encoding/hex"
	"errors"
	"fmt"

	"repro/internal/chain"
	"repro/internal/contracts"
	"repro/internal/netsim"
	"repro/internal/store"
)

// BatchPage is one page of a batch publish.
type BatchPage struct {
	URL   string
	Text  string
	Links []string
}

// BatchReceipt reports the creator side of one batch publish: the
// content stores (costed as one parallel wave — each page is an
// independent upload) and the single registration transaction that
// creates the round's batch index task.
type BatchReceipt struct {
	Pages     int
	Tx        *chain.Tx
	StoreCost netsim.Cost
}

// ErrBatchInvalid marks a publish batch refused by pre-flight
// validation (empty, duplicate URL, foreign-owned URL) — the batch is
// the caller's fault and nothing was stored or submitted. Match with
// errors.Is.
var ErrBatchInvalid = errors.New("core: invalid publish batch")

// PublishBatch runs the creator pipeline for a whole batch: store every
// page's content on the given DWeb peer, then register all URL→CID
// bindings in ONE smart-contract transaction, which creates ONE index
// task covering the batch and names the peer as every page's provider.
// The transaction executes at the next Seal; drive ProcessRound to have
// bees index it.
//
// Foreseeable rejections (duplicate or foreign-owned URLs) fail
// pre-flight with ErrBatchInvalid before any content is stored or any
// block sealed; the contract re-validates atomically at execution, so
// callers should still check the transaction receipt after sealing.
func (c *Cluster) PublishBatch(owner *chain.Account, peer *store.Peer, pages []BatchPage) (BatchReceipt, error) {
	if len(pages) == 0 {
		return BatchReceipt{}, fmt.Errorf("%w: no pages", ErrBatchInvalid)
	}
	seen := make(map[string]bool, len(pages))
	for _, p := range pages {
		if p.URL == "" {
			return BatchReceipt{}, fmt.Errorf("%w: page with empty URL", ErrBatchInvalid)
		}
		if seen[p.URL] {
			return BatchReceipt{}, fmt.Errorf("%w: %q listed twice", ErrBatchInvalid, p.URL)
		}
		seen[p.URL] = true
		if rec, exists := c.QB.Page(p.URL); exists && rec.Owner != owner.Address() {
			return BatchReceipt{}, fmt.Errorf("%w: %q is owned by %s", ErrBatchInvalid, p.URL, rec.Owner.Short())
		}
	}
	params := contracts.PublishBatchParams{Pages: make([]contracts.PublishParams, 0, len(pages))}
	var storeCost netsim.Cost
	for _, p := range pages {
		cid, cost, err := peer.Add([]byte(p.Text))
		if err != nil {
			return BatchReceipt{}, fmt.Errorf("core: storing %q: %w", p.URL, err)
		}
		storeCost = storeCost.Par(cost)
		params.Pages = append(params.Pages, contracts.PublishParams{
			URL:      p.URL,
			CID:      cid.String(),
			Links:    p.Links,
			Provider: string(peer.Addr()),
		})
	}
	tx := c.SubmitCall(owner, contracts.MethodPublishBatch, params, 0)
	return BatchReceipt{Pages: len(pages), Tx: tx, StoreCost: storeCost}, nil
}

// Publish runs the creator pipeline for one page: a one-page
// PublishBatch, whose index task is named after the page version
// (idx:<url>:<seq>).
func (c *Cluster) Publish(owner *chain.Account, peer *store.Peer, url, text string, links []string) (BatchReceipt, error) {
	return c.PublishBatch(owner, peer, []BatchPage{{URL: url, Text: text, Links: links}})
}

// IndexBatch is the full write cycle behind both the facade's
// PublishBatch and the streaming ingest pipeline: store + register the
// batch (PublishBatch against a cluster-chosen peer), seal the block,
// check the registration receipt, and drive one protocol round. The
// returned RoundReceipt carries the batch's store cost.
//
// Every sink MUST go through this one method: it fixes the exact
// cluster call/RNG sequence per batch (RandomPeer draw, Seal count,
// round schedule), which is what makes a pipelined crawl byte-identical
// to a sequential PublishBatch loop over the same batches. Validation
// failures — pre-flight or the contract's atomic on-chain check — wrap
// ErrBatchInvalid.
func (c *Cluster) IndexBatch(owner *chain.Account, pages []BatchPage) (RoundReceipt, error) {
	br, err := c.PublishBatch(owner, c.RandomPeer(), pages)
	if err != nil {
		return RoundReceipt{}, err
	}
	c.Seal()
	if r := c.Chain.Receipt(br.Tx.Hash()); r == nil || !r.OK {
		msg := "no receipt"
		if r != nil {
			msg = r.Err
		}
		return RoundReceipt{}, fmt.Errorf("%w: %s", ErrBatchInvalid, msg)
	}
	rr := c.ProcessRoundReceipt()
	rr.StoreCost = br.StoreCost
	return rr, nil
}

// cidFromHex parses a hex CID recorded on chain.
func cidFromHex(s string) (store.CID, error) {
	var cid store.CID
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(cid) {
		return cid, fmt.Errorf("core: bad CID %q", s)
	}
	copy(cid[:], b)
	return cid, nil
}
