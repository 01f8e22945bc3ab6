package index

import (
	"cmp"
	"slices"
)

// Merge combines segments into one. Segments are applied oldest
// generation first; a newer segment's covered documents shadow all their
// older postings (tombstone semantics), and its postings replace older
// ones per term. Ties on Gen are broken by input order. Merging a single
// segment returns it unchanged (segments are immutable). The result is a
// view over MergeEncode's bytes.
func Merge(segments []*Segment) *Segment {
	if len(segments) == 1 {
		return segments[0]
	}
	return openWritten(MergeEncode(segments))
}

// MergeEncode returns the encoding of the merge of segments. It streams
// a k-way merge over the inputs' dictionaries (mergeKernel) straight into
// the v3 encoder: an input's lists are decoded one at a time into
// buffers reused across terms and never memoized on the input.
func MergeEncode(segments []*Segment) []byte {
	if len(segments) == 1 {
		return segments[0].Encode()
	}
	return mergeEncode(segments, func(string) int { return 0 }, 1)[0]
}

// MergeShards returns, for each of shards (distinct, each below
// numShards), the merge of segments restricted to the terms ShardOf
// routes to that shard: the shard's own run, as compaction writes it. A
// restricted run keeps every kept term's merged postings and the merge's
// whole DocLens, its tombstone set, so a shard that keeps no term gets a
// docs-only run. Restricting inside the merge writes the same bytes as
// restricting the merged segment, since the merge works term by term.
//
// One k-way walk over the runs' dictionaries writes every output: each
// entry is read once whatever the number of shards, and a term's lists
// are decoded only when it routes to one of them.
func MergeShards(segments []*Segment, numShards int, shards []int) []*Segment {
	slot := make([]int, numShards) // shard → its output, -1 for none
	for s := range slot {
		slot[s] = -1
	}
	for i, s := range shards {
		slot[s] = i
	}
	encs := mergeEncode(segments, func(term string) int { return slot[ShardOf(term, numShards)] }, len(shards))
	out := make([]*Segment, len(encs))
	for i, enc := range encs {
		out[i] = openWritten(enc)
	}
	return out
}

// mergeEncode runs one merge kernel over segments and writes each term
// that keeps a posting to the output route names (a negative route drops
// the term unread). Every output gets the merge's whole DocLens and the
// newest input's Gen.
func mergeEncode(segments []*Segment, route func(term string) int, outputs int) [][]byte {
	ordered := byPrecedence(segments)
	walks := make([]*runWalk, len(ordered))
	for rank, seg := range ordered {
		walks[rank] = &runWalk{rank: rank, seg: seg, route: route, walk: dictWalk{seg.dict, seg.posts}}
	}
	docLens := make(map[DocID]uint32)
	k := newMergeKernel(walks, docLens)
	docs := sortedDocIDs(docLens)
	encs := make([]*v3Writer, outputs)
	for i := range encs {
		encs[i] = newV3Writer(docLens, docs)
	}
	for {
		term, out, pl := k.next()
		if pl == nil {
			break
		}
		encs[out].addTerm(term, pl)
	}
	gen := uint64(0)
	if len(ordered) > 0 {
		gen = ordered[len(ordered)-1].Gen
	}
	data := make([][]byte, outputs)
	for i, enc := range encs {
		data[i] = enc.finish(gen)
	}
	return data
}

// byPrecedence orders segments oldest first: by Gen, ties in input order.
func byPrecedence(segments []*Segment) []*Segment {
	ordered := slices.Clone(segments)
	slices.SortStableFunc(ordered, func(a, b *Segment) int { return cmp.Compare(a.Gen, b.Gen) })
	return ordered
}

// runWalk steps through one input run's terms in ascending order,
// skipping those route sends nowhere. It walks the run's dictionary and
// decodes a term's list only when the merge asks for it, into buffers
// the next term reuses.
type runWalk struct {
	rank  int // precedence: a higher rank is newer
	seg   *Segment
	route func(term string) int

	walk  dictWalk    // the unread dictionary
	entry dictEntryV3 // the current entry

	term string // current term, valid until done
	out  int    // and the output it routes to
	done bool

	pl    PostingList // decode buffers
	arena []uint32
}

// advance moves to the next routed term, or sets done.
func (w *runWalk) advance() {
	for {
		if len(w.walk.dict) == 0 {
			w.done = true
			return
		}
		mustRead(w.walk.next(&w.entry, nil))
		w.term = string(w.entry.term)
		if w.out = w.route(w.term); w.out >= 0 {
			return
		}
	}
}

// list returns the current term's postings, which live in the walk's
// buffers until the next call.
func (w *runWalk) list() PostingList {
	w.pl, w.arena = decodeList(&w.entry, w.seg.docsSorted, w.pl, w.arena)
	return w.pl
}

// mergeKernel is the k-way merge of a chain of runs, walking their
// sorted terms in lockstep. For each term it keeps, per document, the
// posting of the newest run holding one — and only if that run is at
// least as new as the newest run whose DocLens covers the document (the
// cover rule). That is exactly what applying the runs oldest first would
// leave, each run first tombstoning every document it covers and then
// adding its postings: a covering run shadows the document's older
// postings of every term, and a posting for a document its own run does
// not cover survives until a newer run covers the document.
type mergeKernel struct {
	walks []*runWalk    // in precedence order
	cover map[DocID]int // newest covering run's rank
	heads []*runWalk    // the walks at the current term
	lists []PostingList // and their lists
	pos   []int         // merge cursors into lists
	out   PostingList   // merged-list scratch
}

// newMergeKernel indexes the walks' covers, fills docLens with each
// covered document's length in the newest run covering it, and moves
// every walk to its first kept term.
func newMergeKernel(walks []*runWalk, docLens map[DocID]uint32) *mergeKernel {
	k := &mergeKernel{walks: walks, cover: make(map[DocID]int)}
	for _, w := range walks {
		for d, l := range w.seg.DocLens {
			k.cover[d] = w.rank
			docLens[d] = l
		}
	}
	for _, w := range walks {
		w.advance()
	}
	return k
}

// next returns the next term that keeps at least one posting, the
// output it routes to, and its merged list (nil when every walk is
// done), valid only until the next call.
func (k *mergeKernel) next() (term string, out int, pl PostingList) {
	for {
		found := false
		for _, w := range k.walks {
			if !w.done && (!found || w.term < term) {
				term, out, found = w.term, w.out, true
			}
		}
		if !found {
			return "", 0, nil
		}
		k.heads, k.lists = k.heads[:0], k.lists[:0]
		for _, w := range k.walks {
			if !w.done && w.term == term {
				k.heads, k.lists = append(k.heads, w), append(k.lists, w.list())
			}
		}
		pl = k.merge()
		for _, w := range k.heads {
			w.advance()
		}
		if len(pl) > 0 {
			return term, out, pl
		}
	}
}

// merge applies the cover rule to the current term's lists. A single
// list none of whose postings a newer run covers comes back as is.
func (k *mergeKernel) merge() PostingList {
	if len(k.lists) == 1 {
		pl, rank := k.lists[0], k.heads[0].rank
		i := 0
		for i < len(pl) && k.keeps(pl[i].Doc, rank) {
			i++
		}
		if i == len(pl) {
			return pl
		}
		k.out = append(k.out[:0], pl[:i]...)
		for _, p := range pl[i+1:] {
			if k.keeps(p.Doc, rank) {
				k.out = append(k.out, p)
			}
		}
		return k.out
	}
	k.pos = append(k.pos[:0], make([]int, len(k.lists))...)
	k.out = k.out[:0]
	for {
		// The smallest head document, from the newest list holding it.
		best, doc := -1, DocID(0)
		for j, pl := range k.lists {
			if k.pos[j] < len(pl) && (best < 0 || pl[k.pos[j]].Doc <= doc) {
				best, doc = j, pl[k.pos[j]].Doc
			}
		}
		if best < 0 {
			return k.out
		}
		if k.keeps(doc, k.heads[best].rank) {
			k.out = append(k.out, k.lists[best][k.pos[best]])
		}
		for j, pl := range k.lists {
			if k.pos[j] < len(pl) && pl[k.pos[j]].Doc == doc {
				k.pos[j]++
			}
		}
	}
}

// keeps reports whether a posting for doc from the run of the given rank
// survives the cover rule.
func (k *mergeKernel) keeps(doc DocID, rank int) bool {
	c, covered := k.cover[doc]
	return !covered || c <= rank
}
