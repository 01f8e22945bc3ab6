package contracts

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/chain"
)

// Ad is one advertiser's escrowed campaign. Advertisers "directly make
// advertisements through our smart contract and the ad revenue is shared
// among the content creators and worker bees."
type Ad struct {
	ID          uint64
	Advertiser  chain.Address
	Keywords    []string
	BidPerClick uint64
	// BidPerImpression optionally charges per display as well ("a fair
	// scheme to charge them" — the paper leaves the model open; this
	// implements CPC with an optional CPM component).
	BidPerImpression uint64
	Budget           uint64
	Clicks           int
	Impressions      int
	Active           bool
}

// RegisterAdParams opens a campaign; the attached value is the budget.
type RegisterAdParams struct {
	Keywords         []string
	BidPerClick      uint64
	BidPerImpression uint64 // 0 disables impression charging
}

func (q *QueenBee) execRegisterAd(ctx *chain.TxContext, params []byte) error {
	var p RegisterAdParams
	if err := chain.DecodeParams(params, &p); err != nil {
		return err
	}
	if len(p.Keywords) == 0 {
		return fmt.Errorf("queenbee: ad needs at least one keyword")
	}
	if p.BidPerClick == 0 && p.BidPerImpression == 0 {
		return fmt.Errorf("queenbee: ad needs a positive bid")
	}
	if minBid := maxU64(p.BidPerClick, p.BidPerImpression); ctx.Value < minBid {
		return fmt.Errorf("queenbee: budget %d below one charge %d", ctx.Value, minBid)
	}
	q.nextAdID++
	kws := make([]string, len(p.Keywords))
	for i, k := range p.Keywords {
		kws[i] = strings.ToLower(k)
	}
	ad := &Ad{
		ID:               q.nextAdID,
		Advertiser:       ctx.Sender,
		Keywords:         kws,
		BidPerClick:      p.BidPerClick,
		BidPerImpression: p.BidPerImpression,
		Budget:           ctx.Value,
		Active:           true,
	}
	q.ads[ad.ID] = ad
	ctx.Emit(EventAdRegistered, map[string]string{
		"ad":       strconv.FormatUint(ad.ID, 10),
		"bid":      strconv.FormatUint(p.BidPerClick, 10),
		"keywords": strings.Join(kws, ","),
	})
	return nil
}

// TopUpAdParams adds budget to an existing campaign.
type TopUpAdParams struct {
	AdID uint64
}

func (q *QueenBee) execTopUpAd(ctx *chain.TxContext, params []byte) error {
	var p TopUpAdParams
	if err := chain.DecodeParams(params, &p); err != nil {
		return err
	}
	ad, ok := q.ads[p.AdID]
	if !ok {
		return fmt.Errorf("queenbee: unknown ad %d", p.AdID)
	}
	if ad.Advertiser != ctx.Sender {
		return fmt.Errorf("queenbee: ad %d belongs to %s", p.AdID, ad.Advertiser.Short())
	}
	if ctx.Value == 0 {
		return fmt.Errorf("queenbee: top-up needs attached honey")
	}
	ad.Budget += ctx.Value
	if ad.Budget >= ad.BidPerClick {
		ad.Active = true
	}
	return nil
}

// ClickParams records one paid click: the ad clicked and the page on
// which it was displayed.
type ClickParams struct {
	AdID uint64
	URL  string
}

// execClick implements pay-per-click ("they pay by the number of clicks
// on the ad"): the bid moves from the advertiser's escrowed budget to the
// page's content creator and the worker pool, split by creatorShareBP.
func (q *QueenBee) execClick(ctx *chain.TxContext, params []byte) error {
	var p ClickParams
	if err := chain.DecodeParams(params, &p); err != nil {
		return err
	}
	ad, ok := q.ads[p.AdID]
	if !ok {
		return fmt.Errorf("queenbee: unknown ad %d", p.AdID)
	}
	if ad.BidPerClick == 0 {
		return fmt.Errorf("queenbee: ad %d is not pay-per-click", p.AdID)
	}
	if !ad.Active || ad.Budget < ad.BidPerClick {
		return fmt.Errorf("queenbee: ad %d exhausted", p.AdID)
	}
	page, ok := q.pages[p.URL]
	if !ok {
		return fmt.Errorf("queenbee: click on unregistered page %q", p.URL)
	}
	if err := q.payRevenueSplitLocked(ctx, page.Owner, ad.BidPerClick); err != nil {
		return err
	}
	ad.Budget -= ad.BidPerClick
	ad.Clicks++
	q.deactivateIfExhaustedLocked(ctx, ad)
	ctx.Emit(EventAdClick, map[string]string{
		"ad":      strconv.FormatUint(ad.ID, 10),
		"url":     p.URL,
		"creator": page.Owner.String(),
		"amount":  strconv.FormatUint(ad.BidPerClick, 10),
	})
	return nil
}

// ImpressionParams records one paid ad display (CPM component).
type ImpressionParams struct {
	AdID uint64
	URL  string
}

// execImpression charges BidPerImpression for one display, with the same
// creator/worker revenue split as clicks.
func (q *QueenBee) execImpression(ctx *chain.TxContext, params []byte) error {
	var p ImpressionParams
	if err := chain.DecodeParams(params, &p); err != nil {
		return err
	}
	ad, ok := q.ads[p.AdID]
	if !ok {
		return fmt.Errorf("queenbee: unknown ad %d", p.AdID)
	}
	if ad.BidPerImpression == 0 {
		return fmt.Errorf("queenbee: ad %d has no impression bid", p.AdID)
	}
	if !ad.Active || ad.Budget < ad.BidPerImpression {
		return fmt.Errorf("queenbee: ad %d exhausted", p.AdID)
	}
	page, ok := q.pages[p.URL]
	if !ok {
		return fmt.Errorf("queenbee: impression on unregistered page %q", p.URL)
	}
	if err := q.payRevenueSplitLocked(ctx, page.Owner, ad.BidPerImpression); err != nil {
		return err
	}
	ad.Budget -= ad.BidPerImpression
	ad.Impressions++
	q.deactivateIfExhaustedLocked(ctx, ad)
	return nil
}

// payRevenueSplitLocked pays the creator's share of amount to owner and
// distributes the remainder equally across active workers; indivisible
// remainders stay in escrow as tracked dust.
func (q *QueenBee) payRevenueSplitLocked(ctx *chain.TxContext, owner chain.Address, amount uint64) error {
	creatorCut := amount * creatorShareBP / 10000
	workerCut := amount - creatorCut
	if err := ctx.PayFromEscrow(owner, creatorCut); err != nil {
		return err
	}
	workers := q.activeWorkersLocked()
	var distributed uint64
	if len(workers) > 0 {
		perWorker := workerCut / uint64(len(workers))
		for _, w := range workers {
			if perWorker == 0 {
				break
			}
			if err := ctx.PayFromEscrow(w, perWorker); err != nil {
				return err
			}
			distributed += perWorker
		}
	}
	q.dust += workerCut - distributed
	return nil
}

// deactivateIfExhaustedLocked turns the ad off once the budget can no
// longer cover the cheapest positive charge.
func (q *QueenBee) deactivateIfExhaustedLocked(ctx *chain.TxContext, ad *Ad) {
	min := minPositive(ad.BidPerClick, ad.BidPerImpression)
	if min == 0 || ad.Budget >= min {
		return
	}
	ad.Active = false
	ctx.Emit(EventAdExhausted, map[string]string{
		"ad": strconv.FormatUint(ad.ID, 10),
	})
}

func minPositive(a, b uint64) uint64 {
	switch {
	case a == 0:
		return b
	case b == 0:
		return a
	case a < b:
		return a
	default:
		return b
	}
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// AdInfo returns a copy of one campaign.
func (q *QueenBee) AdInfo(id uint64) (Ad, bool) {
	q.mu.RLock()
	defer q.mu.RUnlock()
	ad, ok := q.ads[id]
	if !ok {
		return Ad{}, false
	}
	out := *ad
	out.Keywords = append([]string(nil), ad.Keywords...)
	return out, true
}

// AdsForTerms returns active ads whose keywords intersect the query
// terms, highest bid first (the simple auction the frontend runs when
// composing results). Ties break by lower ID for determinism.
func (q *QueenBee) AdsForTerms(terms []string) []Ad {
	want := make(map[string]bool, len(terms))
	for _, t := range terms {
		want[strings.ToLower(t)] = true
	}
	q.mu.RLock()
	defer q.mu.RUnlock()
	var out []Ad
	for _, ad := range q.ads {
		if !ad.Active {
			continue
		}
		for _, k := range ad.Keywords {
			if want[k] {
				cp := *ad
				cp.Keywords = append([]string(nil), ad.Keywords...)
				out = append(out, cp)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].BidPerClick != out[j].BidPerClick {
			return out[i].BidPerClick > out[j].BidPerClick
		}
		return out[i].ID < out[j].ID
	})
	return out
}
