package index

import (
	"cmp"
	"slices"
)

// Merge combines segments into one. Segments are applied oldest
// generation first; a newer segment's covered documents shadow all their
// older postings (tombstone semantics), and its postings replace older
// ones per term. Ties on Gen are broken by input order. Merging a single
// segment returns it unchanged (segments are immutable). An input whose
// posting bytes fail to decode is skipped entirely — neither its postings
// nor its tombstones apply — so corruption can hide documents it carried
// but never deletes older valid ones. The result is a view over
// MergeEncode's bytes.
func Merge(segments []*Segment) *Segment {
	if len(segments) == 1 {
		return segments[0]
	}
	return openWritten(MergeEncode(segments, nil))
}

// MergeEncode returns the encoding of the merge of segments, each first
// restricted to the terms keep accepts (nil keeps every term); a
// restricted input keeps its whole DocLens, its tombstone set. It streams
// a k-way merge over the inputs' dictionaries (mergeKernel) straight into
// the v3 encoder: an input's kept lists are decoded one at a time into
// buffers reused across terms and never memoized on the input.
// Compaction writes its shard-restricted runs through it.
func MergeEncode(segments []*Segment, keep func(term string) bool) []byte {
	switch {
	case len(segments) == 0:
		return newV3Writer(nil, nil).finish(0)
	case len(segments) == 1 && keep == nil:
		return segments[0].Encode()
	}
	ordered := byPrecedence(segments)
	skip := make([]bool, len(ordered))
	for {
		data, bad := mergeEncode(ordered, skip, keep)
		if bad < 0 {
			return data
		}
		// An input failed to decode part way: merge again without it.
		skip[bad] = true
	}
}

// mergeEncode is one MergeEncode pass over the inputs skip does not
// exclude. It returns the encoding, or the precedence rank of an input
// that failed to decode (and -1 on success).
func mergeEncode(ordered []*Segment, skip []bool, keep func(term string) bool) ([]byte, int) {
	walks := make([]*runWalk, 0, len(ordered))
	for rank, seg := range ordered {
		if !skip[rank] {
			walks = append(walks, &runWalk{rank: rank, seg: seg, keep: keep, walk: dictWalk{seg.dict, seg.posts}})
		}
	}
	docLens := make(map[DocID]uint32)
	k, bad, err := newMergeKernel(walks, docLens)
	if err != nil {
		return nil, bad
	}
	enc := newV3Writer(docLens, sortedDocIDs(docLens))
	for {
		term, pl, bad, err := k.next()
		if err != nil {
			return nil, bad
		}
		if pl == nil {
			return enc.finish(ordered[len(ordered)-1].Gen), -1
		}
		enc.addTerm(term, pl)
	}
}

// byPrecedence orders segments oldest first: by Gen, ties in input order.
func byPrecedence(segments []*Segment) []*Segment {
	ordered := slices.Clone(segments)
	slices.SortStableFunc(ordered, func(a, b *Segment) int { return cmp.Compare(a.Gen, b.Gen) })
	return ordered
}

// runWalk steps through one input run's terms in ascending order,
// skipping those keep rejects (nil keeps all). It walks the run's
// dictionary and decodes a term's list only when the merge asks for it,
// into buffers the next term reuses.
type runWalk struct {
	rank int // precedence: a higher rank is newer
	seg  *Segment
	keep func(term string) bool

	walk  dictWalk    // the unread dictionary
	entry dictEntryV3 // the current entry

	term string // current term, valid until done
	done bool

	pl    PostingList // decode buffers
	arena []uint32
}

// advance moves to the next kept term, or sets done.
func (w *runWalk) advance() error {
	for {
		if len(w.walk.dict) == 0 {
			w.done = true
			return nil
		}
		if err := w.walk.next(&w.entry, nil); err != nil {
			return err
		}
		w.term = string(w.entry.term)
		if w.keep == nil || w.keep(w.term) {
			return nil
		}
	}
}

// list returns the current term's postings, which live in the walk's
// buffers until the next call.
func (w *runWalk) list() (PostingList, error) {
	var err error
	w.pl, w.arena, err = decodeList(&w.entry, w.seg.docsSorted, w.pl, w.arena)
	return w.pl, err
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
// every walk to its first kept term. On error it returns the failing
// walk's rank.
func newMergeKernel(walks []*runWalk, docLens map[DocID]uint32) (*mergeKernel, int, error) {
	k := &mergeKernel{walks: walks, cover: make(map[DocID]int)}
	for _, w := range walks {
		for d, l := range w.seg.DocLens {
			k.cover[d] = w.rank
			docLens[d] = l
		}
	}
	for _, w := range walks {
		if err := w.advance(); err != nil {
			return nil, w.rank, err
		}
	}
	return k, -1, nil
}

// next returns the next term that keeps at least one posting, with its
// merged list (nil when every walk is done), valid only until the next
// call. On error it returns the failing walk's rank.
func (k *mergeKernel) next() (term string, pl PostingList, bad int, err error) {
	for {
		found := false
		for _, w := range k.walks {
			if !w.done && (!found || w.term < term) {
				term, found = w.term, true
			}
		}
		if !found {
			return "", nil, -1, nil
		}
		k.heads, k.lists = k.heads[:0], k.lists[:0]
		for _, w := range k.walks {
			if w.done || w.term != term {
				continue
			}
			l, err := w.list()
			if err != nil {
				return "", nil, w.rank, err
			}
			k.heads, k.lists = append(k.heads, w), append(k.lists, l)
		}
		pl = k.merge()
		for _, w := range k.heads {
			if err := w.advance(); err != nil {
				return "", nil, w.rank, err
			}
		}
		if len(pl) > 0 {
			return term, pl, -1, nil
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
