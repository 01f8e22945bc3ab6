package core

import (
	"encoding/binary"
	"sort"

	"repro/internal/index"
	"repro/internal/rank"
	"repro/internal/store"
)

// duplicateSimilarity is the MinHash similarity above which a
// later-published page is treated as a scraper mirror.
const duplicateSimilarity = 0.85

// pageSig is one published page's content signature, with the height it
// was published at.
type pageSig struct {
	url    string
	height uint64
	sig    index.MinHashSig
}

// pageSignatures is the network leg of the scraper defense: it fetches
// every page of the link graph, in URL order, and returns their content
// signatures with the fetches' serve-cache announcements; every fetched
// page's URL, height and bytes go into key. The fetches' cost is billed
// to the bee. A page that cannot be fetched is skipped.
func (b *WorkerBee) pageSignatures(links map[string][]string, key keyHash) ([]pageSig, []store.Announcement) {
	urls := make([]string, 0, len(links))
	for u := range links {
		urls = append(urls, u)
	}
	sort.Strings(urls)
	var sigs []pageSig
	var anns []store.Announcement
	for _, url := range urls {
		rec, ok := b.cluster.QB.Page(url)
		if !ok {
			continue
		}
		cid, err := cidFromHex(rec.CID)
		if err != nil {
			continue
		}
		content, cost, _, ann, err := b.Peer.FetchHinted(cid, "")
		b.Cost = b.Cost.Seq(cost)
		if ann != nil {
			anns = append(anns, *ann)
		}
		if err != nil {
			continue
		}
		key.add([]byte(url))
		key.add(binary.BigEndian.AppendUint64(nil, rec.Height))
		key.add(content)
		sigs = append(sigs, pageSig{url: url, height: rec.Height, sig: index.SignatureOf(string(content))})
	}
	return sigs, anns
}

// zeroDuplicates implements the scraper defense inside rank computation:
// every page's content signature is compared against earlier-published
// pages; near-duplicates published later (the mirror) get rank zero, so
// they earn no popularity honey and rank last in search results. The
// procedure is deterministic (content + chain state only), so honest bees
// still agree byte-for-byte.
func zeroDuplicates(g *rank.Graph, ranks []float64, sigs []pageSig) []float64 {
	out := append([]float64(nil), ranks...)
	for i := 0; i < len(sigs); i++ {
		for j := i + 1; j < len(sigs); j++ {
			if sigs[i].sig.Similarity(sigs[j].sig) < duplicateSimilarity {
				continue
			}
			// The later-published page is the mirror. Ties (same block)
			// demote the lexicographically later URL for determinism.
			a, b := sigs[i], sigs[j]
			later := b
			if a.height > b.height || (a.height == b.height && a.url > b.url) {
				later = a
			}
			if node, ok := g.NodeOf(later.url); ok {
				out[node] = 0
			}
		}
	}
	return out
}
