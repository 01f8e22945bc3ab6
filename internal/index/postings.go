package index

import "sort"

// DocID identifies a document (stable per URL; assigned by the engine).
type DocID uint32

// Posting is one document's occurrence record for one term.
type Posting struct {
	Doc       DocID
	TF        uint32   // term frequency
	Positions []uint32 // token positions, ascending
}

// PostingList is a term's postings, sorted ascending by DocID.
type PostingList []Posting

// Docs returns just the document IDs of the list.
func (pl PostingList) Docs() []DocID {
	out := make([]DocID, len(pl))
	for i, p := range pl {
		out[i] = p.Doc
	}
	return out
}

// Find returns the posting for a document, if present, via binary search.
func (pl PostingList) Find(doc DocID) (Posting, bool) {
	i := sort.Search(len(pl), func(i int) bool { return pl[i].Doc >= doc })
	if i < len(pl) && pl[i].Doc == doc {
		return pl[i], true
	}
	return Posting{}, false
}
