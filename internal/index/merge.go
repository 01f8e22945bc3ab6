package index

import (
	"cmp"
	"slices"
)

// Merge combines segments into one. Segments are applied oldest
// generation first; a newer segment's covered documents shadow all their
// older postings (tombstone semantics), and its postings replace older
// ones per term. Ties on Gen are broken by input order. Merging a single
// segment returns it unchanged (segments are immutable), which keeps a
// compacted one-segment chain fully lazy. Lazy inputs are materialized
// (and memoized, as Postings would); a lazy input whose posting bytes fail
// to decode is skipped entirely — neither its postings nor its tombstones
// apply — so corruption can hide documents it carried but never deletes
// older valid ones. The merged lists come from one k-way pass over the
// inputs' sorted terms (mergeKernel); a list only one input holds, with
// nothing newer covering its documents, is shared rather than copied.
func Merge(segments []*Segment) *Segment {
	if len(segments) == 0 {
		return NewSegment(0)
	}
	if len(segments) == 1 {
		return segments[0]
	}
	ordered := byPrecedence(segments)
	out := NewSegment(ordered[len(ordered)-1].Gen)
	walks := make([]*runWalk, 0, len(ordered))
	for rank, seg := range ordered {
		terms, err := seg.postingsMap()
		if err != nil {
			continue
		}
		walks = append(walks, &runWalk{rank: rank, docLens: seg.DocLens, terms: seg.TermsSorted(), lists: terms})
	}
	k, _, _ := newMergeKernel(walks, out.DocLens) // in-memory walks never fail
	for {
		term, pl, scratch, _, _ := k.next()
		if pl == nil {
			return out
		}
		if scratch {
			pl = slices.Clone(pl)
		}
		out.Terms[term] = pl
	}
}

// MergeEncode returns the encoding of the merge of segments, each first
// restricted to the terms keep accepts (nil keeps every term): byte for
// byte Merge(restricted segments).Encode(), a corrupt lazy input skipped
// whole included. It streams the k-way merge straight into the v3
// encoder — no restricted copies, no merged Terms map, and a lazy input's
// kept lists are decoded one at a time into buffers reused across terms
// and never memoized on the input. Compaction writes its merged runs
// through it.
func MergeEncode(segments []*Segment, keep func(term string) bool) []byte {
	switch len(segments) {
	case 0:
		return NewSegment(0).Encode()
	case 1:
		if keep == nil {
			return segments[0].Encode()
		}
		return segments[0].Restrict(keep).Encode()
	}
	ordered := byPrecedence(segments)
	skip := make([]bool, len(ordered))
	for {
		data, bad := mergeEncode(ordered, skip, keep)
		if bad < 0 {
			return data
		}
		// A lazy input failed to decode part way: merge again without it.
		skip[bad] = true
	}
}

// mergeEncode is one MergeEncode pass over the inputs skip does not
// exclude. It returns the encoding, or the precedence rank of an input
// that failed to decode (and -1 on success).
func mergeEncode(ordered []*Segment, skip []bool, keep func(term string) bool) ([]byte, int) {
	walks := make([]*runWalk, 0, len(ordered))
	for rank, seg := range ordered {
		if skip[rank] {
			continue
		}
		w := &runWalk{rank: rank, docLens: seg.DocLens, keep: keep}
		if seg.lazy != nil {
			w.lazy, w.dict = seg.lazy, seg.lazy.dict
		} else {
			w.terms, w.lists = seg.TermsSorted(), seg.Terms
		}
		walks = append(walks, w)
	}
	docLens := make(map[DocID]uint32)
	k, bad, err := newMergeKernel(walks, docLens)
	if err != nil {
		return nil, bad
	}
	enc := newV3Writer(docLens, sortedDocIDs(docLens))
	for {
		term, pl, _, bad, err := k.next()
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
// skipping those keep rejects (nil keeps all). A run whose lists are in
// memory walks its sorted terms; a lazy run walks its dictionary and
// decodes a term's list only when the merge asks for it, into buffers the
// next term reuses.
type runWalk struct {
	rank    int // precedence: a higher rank is newer
	docLens map[DocID]uint32
	keep    func(term string) bool

	// In memory: the sorted terms and their lists; next indexes terms.
	terms []string
	lists map[string]PostingList
	next  int

	// Lazy: the unread dictionary, the current entry and its blob.
	lazy    *lazySegment
	dict    []byte
	postOff int
	entry   dictEntryV3
	blob    []byte

	term string // current term, valid until done
	done bool

	pl    PostingList // decode buffers (lazy)
	arena []uint32
}

// advance moves to the next kept term, or sets done.
func (w *runWalk) advance() error {
	for {
		if w.lazy == nil {
			if w.next == len(w.terms) {
				w.done = true
				return nil
			}
			w.term = w.terms[w.next]
			w.next++
		} else {
			if len(w.dict) == 0 {
				w.done = true
				return nil
			}
			e, rest, err := nextDictEntryV3(w.dict)
			if err != nil {
				return err
			}
			if w.postOff+e.blobLen > len(w.lazy.posts) {
				return errCorruptSegment
			}
			w.dict, w.entry = rest, e
			w.blob = w.lazy.posts[w.postOff : w.postOff+e.blobLen]
			w.postOff += e.blobLen
			w.term = string(e.term)
		}
		if w.keep == nil || w.keep(w.term) {
			return nil
		}
	}
}

// list returns the current term's postings. A lazy run's list lives in
// the walk's buffers until the next call.
func (w *runWalk) list() (PostingList, error) {
	if w.lazy == nil {
		return w.lists[w.term], nil
	}
	var err error
	if w.pl, w.arena, err = decodeTermBlobV3(w.blob, w.entry, w.lazy.docsSorted, w.pl, w.arena); err != nil {
		return nil, err
	}
	return w.pl, w.pl.sortCheck()
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
		for d, l := range w.docLens {
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
// merged list (nil when every walk is done). scratch reports whether the
// list is the kernel's buffer, valid only until the next call; otherwise
// it is an input run's own list — still only until the next call for a
// lazy run's. On error it returns the failing walk's rank.
func (k *mergeKernel) next() (term string, pl PostingList, scratch bool, bad int, err error) {
	for {
		found := false
		for _, w := range k.walks {
			if !w.done && (!found || w.term < term) {
				term, found = w.term, true
			}
		}
		if !found {
			return "", nil, false, -1, nil
		}
		k.heads, k.lists = k.heads[:0], k.lists[:0]
		for _, w := range k.walks {
			if w.done || w.term != term {
				continue
			}
			l, err := w.list()
			if err != nil {
				return "", nil, false, w.rank, err
			}
			k.heads, k.lists = append(k.heads, w), append(k.lists, l)
		}
		pl, scratch = k.merge()
		for _, w := range k.heads {
			if err := w.advance(); err != nil {
				return "", nil, false, w.rank, err
			}
		}
		if len(pl) > 0 {
			return term, pl, scratch, -1, nil
		}
	}
}

// merge applies the cover rule to the current term's lists. A single
// list none of whose postings a newer run covers comes back as is.
func (k *mergeKernel) merge() (PostingList, bool) {
	if len(k.lists) == 1 {
		pl, rank := k.lists[0], k.heads[0].rank
		i := 0
		for i < len(pl) && k.keeps(pl[i].Doc, rank) {
			i++
		}
		if i == len(pl) {
			return pl, false
		}
		k.out = append(k.out[:0], pl[:i]...)
		for _, p := range pl[i+1:] {
			if k.keeps(p.Doc, rank) {
				k.out = append(k.out, p)
			}
		}
		return k.out, true
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
			return k.out, true
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
