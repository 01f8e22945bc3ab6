package index

import "sort"

// WANDStats counts the work the block-max executor did and avoided.
type WANDStats struct {
	PostingsScanned int64 // postings decoded or probed
	BlocksSkipped   int64 // skip blocks passed without decoding
	DocsSkipped     int64 // candidate documents never fully scored
}

// wandSlack is the safety factor applied to upper bounds before a skip
// decision: skip only when bound*wandSlack ≤ current threshold. The
// block frontiers make bounds exact in real arithmetic, but TermScore's
// float evaluation can differ by a few ulps between a frontier pair and
// the dominated pair actually scored; 1e-9 relative slack dwarfs that
// while costing essentially no skips. Slack only ever suppresses a skip
// (never allows an extra one), so it preserves byte-identity with
// scoring every candidate in the conservative direction.
const wandSlack = 1 + 1e-9

// rankBlendBound returns the safe multiplier covering Combine's rank
// blend: final = text * (1 + RankWeight * rank/maxRank) ≤ text * (1 +
// RankWeight), since ranks never exceed maxRank and text scores are
// non-negative. When the blend is disabled Combine is the identity.
func rankBlendBound(sc *Scorer, maxRank float64) float64 {
	if sc.RankWeight > 0 && maxRank > 0 {
		return 1 + sc.RankWeight
	}
	return 1
}

// topkAcc is a streaming top-k accumulator over the same bounded
// min-heap primitives TopK uses, so its output is byte-identical to
// collecting every ScoredDoc and calling TopK. The heap root is the
// WAND threshold once k docs have been seen.
type topkAcc struct {
	k int
	h []ScoredDoc
}

func newTopkAcc(k int) *topkAcc { return &topkAcc{k: k, h: make([]ScoredDoc, 0, k)} }

func (a *topkAcc) full() bool      { return len(a.h) >= a.k }
func (a *topkAcc) root() ScoredDoc { return a.h[0] }

func (a *topkAcc) push(d ScoredDoc) {
	if len(a.h) < a.k {
		a.h = append(a.h, d)
		siftUp(a.h, len(a.h)-1)
		return
	}
	if outranks(d, a.h[0]) {
		a.h[0] = d
		siftDown(a.h, 0)
	}
}

func (a *topkAcc) ranked() []ScoredDoc {
	if len(a.h) == 0 {
		return nil
	}
	sortScored(a.h)
	return a.h
}

// WANDTopK scores an ascending candidate list against per-term cursors
// (aligned with the query's term order; nil entries mark terms absent
// from the segment) and returns the top k docs, byte-identical to
// exhaustively scoring every candidate and calling TopK. Each term
// scores a doc with the length its own cursor's segment records — the
// lengths its block-max bounds were computed from, so every bound holds
// even where segments disagree on a doc — and docLen answers only for a
// posting whose segment records none. Once the heap
// holds k docs, a candidate is fully evaluated only if the sum of the
// cursors' current block-max bounds (times the rank-blend bound) can
// beat the heap root; otherwise the whole run of candidates up to the
// nearest block boundary is skipped. Skipping at a score tie is safe
// because candidates arrive in ascending DocID order, so a later doc
// always loses the DocID tiebreak to the incumbent root.
func WANDTopK(cands []DocID, cursors []*TermCursor, sc *Scorer, docLen func(DocID) uint32, rankOf func(DocID) float64, maxRank float64, k int, stats *WANDStats) []ScoredDoc {
	if k <= 0 || len(cands) == 0 {
		return nil
	}
	rb := rankBlendBound(sc, maxRank)
	acc := newTopkAcc(k)
	i := 0
	for i < len(cands) {
		d := cands[i]
		if acc.full() {
			ub := 0.0
			minLast := DocID(1<<32 - 1)
			live := false
			for _, c := range cursors {
				if c == nil {
					continue
				}
				c.ShallowSeek(d)
				if c.Exhausted() {
					continue
				}
				live = true
				ub += c.Bound(sc)
				if bl := c.BlockLast(); bl < minLast {
					minLast = bl
				}
			}
			if !live {
				// No cursor can contribute again: every remaining candidate
				// scores Combine(0, ...) = 0 ≤ root and loses the tiebreak.
				if stats != nil {
					stats.DocsSkipped += int64(len(cands) - i)
				}
				break
			}
			if ub*rb*wandSlack <= acc.root().Score {
				// Every candidate ≤ minLast sees these same blocks, hence the
				// same bound: skip them all in one batch.
				j := i + sort.Search(len(cands)-i, func(x int) bool { return cands[i+x] > minLast })
				if j == i {
					j = i + 1 // minLast ≥ d always; defensive
				}
				if stats != nil {
					stats.DocsSkipped += int64(j - i)
				}
				i = j
				continue
			}
		}
		text := 0.0
		for _, c := range cursors {
			if c == nil {
				continue
			}
			if tf, ok := c.SeekTF(d); ok {
				text += sc.TermScore(tf, c.docLen(d, docLen), c.DF())
			}
		}
		acc.push(ScoredDoc{Doc: d, Score: sc.Combine(text, rankOf(d), maxRank)})
		i++
	}
	drainCursorStats(cursors, stats)
	return acc.ranked()
}

// WANDTopKDirect is the single-term fast path: it visits one cursor's
// blocks in impact order (descending block-max bound, block index
// breaking ties), so the heap threshold is maximal from the first k
// postings on; once one block's bound fails the threshold test, every
// remaining bound fails too and the tail is skipped in one step, without
// ever materializing a candidate list. Byte-identical to exhaustively
// scoring the term's postings and calling TopK: a bounded heap's final
// content does not depend on admission order, and the slack-strict skip
// test (bound < root, since wandSlack > 1) means a skipped block cannot
// even tie the heap root — its docs lose outright, whatever their IDs.
// Doc lengths come from the cursor's segment as in WANDTopK.
func WANDTopKDirect(cur *TermCursor, sc *Scorer, docLen func(DocID) uint32, rankOf func(DocID) float64, maxRank float64, k int, stats *WANDStats) []ScoredDoc {
	if k <= 0 || cur == nil {
		return nil
	}
	rb := rankBlendBound(sc, maxRank)
	acc := newTopkAcc(k)
	type blockBound struct {
		bi    int
		bound float64
	}
	order := make([]blockBound, len(cur.skips))
	for i := range cur.skips {
		order[i] = blockBound{i, cur.boundOf(i, sc)}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].bound != order[j].bound {
			return order[i].bound > order[j].bound
		}
		return order[i].bi < order[j].bi
	})
	for oi, b := range order {
		if acc.full() && b.bound*rb*wandSlack <= acc.root().Score {
			for _, rest := range order[oi:] {
				cur.skippedBlocks++
				if stats != nil {
					stats.DocsSkipped += int64(v3BlockLen(rest.bi, cur.df))
				}
			}
			break
		}
		cur.bi = b.bi
		if !cur.ensureDecoded() {
			break // defensive: corrupt block exhausts the cursor
		}
		for i, d := range cur.docs {
			text := sc.TermScore(cur.tfs[i], cur.docLen(d, docLen), cur.df)
			acc.push(ScoredDoc{Doc: d, Score: sc.Combine(text, rankOf(d), maxRank)})
		}
	}
	cur.bi = len(cur.skips)
	drainCursorStats([]*TermCursor{cur}, stats)
	return acc.ranked()
}

// drainCursorStats folds per-cursor counters into stats and resets them.
func drainCursorStats(cursors []*TermCursor, stats *WANDStats) {
	if stats == nil {
		return
	}
	for _, c := range cursors {
		if c == nil {
			continue
		}
		stats.PostingsScanned += c.scanned
		stats.BlocksSkipped += c.skippedBlocks
		c.scanned, c.skippedBlocks = 0, 0
	}
}
