package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dht"
	"repro/internal/netsim"
)

// Errors returned by Fetch.
var (
	ErrNoProviders = errors.New("store: no providers found")
	ErrAllTampered = errors.New("store: every provider served tampered data")
)

// blockReq asks a peer for one block by CID.
type blockReq struct {
	CID CID
}

type blockResp struct {
	Found bool
	Data  []byte
}

func (blockReq) WireSize() int    { return 40 }
func (r blockResp) WireSize() int { return 8 + len(r.Data) }

// Every peer chunks at DefaultChunkSize, announces itself as a provider
// for content it fetched (the DWeb "retrievers also serve" behaviour),
// and runs with the same cache and provider bounds.
const (
	cacheCapacity = 16 << 20 // bytes of fetched content a peer caches
	maxProviders  = 8        // providers one fetch will try
)

// PeerConfig tunes one DWeb peer.
type PeerConfig struct {
	// Swarming stripes chunk downloads of multi-block documents across
	// all known providers in parallel instead of pulling from one.
	Swarming bool
}

// Peer is one DWeb device: a DHT node plus a content block store. Creating
// a Peer re-registers the node's network handler with one that serves
// block requests and delegates everything else to the DHT.
type Peer struct {
	cfg    PeerConfig
	dht    *dht.Node
	net    *netsim.Network
	blocks *BlockStore

	tamperDetected atomic.Int64
	blocksServed   atomic.Int64

	// roots maps every document root this peer has announced as a
	// provider for (the block store itself has no enumeration) to the
	// contacts its latest announce landed on. Provider records never
	// expire, so maintenance re-announces a root only when one of those
	// stops answering or there were never K of them (Reprovide).
	rootsMu sync.Mutex
	roots   map[CID][]dht.Contact
}

// Announcement is one fetched root's serve-cache announcement: the root,
// the walk its provider discovery ran, if any, so the ADD_PROVIDER wave
// lands on it without walking again, and how long that walk still had to
// run when the content arrived — the announce cannot be sent before the
// walk has converged, and the fetch did not wait for it. A fetch that
// discovered nothing (a served hint) carries the zero walk, and its
// announce walks for itself.
type Announcement struct {
	root CID
	walk dht.Walk
	lag  time.Duration
}

// NewPeer wraps an existing DHT node with content storage.
func NewPeer(net *netsim.Network, d *dht.Node, cfg PeerConfig) *Peer {
	p := &Peer{
		cfg:    cfg,
		dht:    d,
		net:    net,
		blocks: NewBlockStore(cacheCapacity),
		roots:  make(map[CID][]dht.Contact),
	}
	net.Register(d.Self().Addr, p.HandleRPC)
	return p
}

// DHT returns the peer's underlying DHT node.
func (p *Peer) DHT() *dht.Node { return p.dht }

// Addr returns the peer's network address.
func (p *Peer) Addr() netsim.NodeID { return p.dht.Self().Addr }

// Blocks exposes the local block store (tests and fault injection).
func (p *Peer) Blocks() *BlockStore { return p.blocks }

// TamperDetections returns how many tampered blocks this peer rejected.
func (p *Peer) TamperDetections() int64 { return p.tamperDetected.Load() }

// BlocksServed returns how many block requests this peer answered.
func (p *Peer) BlocksServed() int64 { return p.blocksServed.Load() }

// HandleRPC serves block requests and forwards other traffic to the DHT.
func (p *Peer) HandleRPC(from netsim.NodeID, req any) (any, error) {
	if br, ok := req.(blockReq); ok {
		data, found := p.blocks.Get(br.CID)
		if found {
			p.blocksServed.Add(1)
		}
		return blockResp{Found: found, Data: data}, nil
	}
	return p.dht.HandleRPC(from, req)
}

// Add publishes a document: chunks it, pins every block, and announces
// this peer as a provider for the root. It returns the root CID.
func (p *Peer) Add(data []byte) (CID, netsim.Cost, error) {
	root, blocks := ChunkDocument(data, DefaultChunkSize)
	// Pin in sorted CID order so the block store sees the same insertion
	// sequence on every run.
	cids := make([]CID, 0, len(blocks))
	for c := range blocks {
		cids = append(cids, c)
	}
	sort.Slice(cids, func(i, j int) bool { return bytes.Compare(cids[i][:], cids[j][:]) < 0 })
	for _, c := range cids {
		p.blocks.Pin(blocks[c])
	}
	holders, cost, err := p.dht.Provide(root.Key())
	p.setHolders(root, holders)
	if err != nil {
		return root, cost, fmt.Errorf("store: announcing %s: %w", root.Short(), err)
	}
	return root, cost, nil
}

// setHolders records where root's latest announce landed (nil when it
// landed nowhere; the next Reprovide announces it again).
func (p *Peer) setHolders(root CID, holders []dht.Contact) {
	p.rootsMu.Lock()
	p.roots[root] = holders
	p.rootsMu.Unlock()
}

// Announce makes this peer a provider for content it fetched and cached:
// each announcement in list order (duplicates collapsed) lands on the
// closest set its provider discovery already walked to, or walks, storing
// as it goes, when there was no converged discovery walk
// (dht.Node.ProvideAt), and where it landed is recorded. The costs fold
// in parallel: the announcements are independent of each other. Each is
// what its discovery walk still had to run once the content was in
// (latency only: the fetch already paid for the walk's messages)
// followed by the ADD_PROVIDER wave or walk — background work nothing
// else in a round waits for, which is why the round engine folds it
// beside the materialize phase instead of into the commit wave.
func (p *Peer) Announce(anns []Announcement) netsim.Cost {
	var total netsim.Cost
	seen := make(map[dht.Key]bool, len(anns))
	for _, a := range anns {
		if seen[a.walk.Key] {
			continue
		}
		seen[a.walk.Key] = true
		//detlint:ignore errsink best-effort cache announce; the fetch itself already succeeded and a missed provide is re-sent by the next Reprovide
		holders, cost, _ := p.dht.ProvideAt(a.walk)
		p.setHolders(a.root, holders)
		total = total.Par(netsim.Cost{Latency: a.lag}.Seq(cost))
	}
	return total
}

// Reprovide keeps this peer's provider records findable through churn
// (provider records on departed nodes are simply gone). Records never
// expire, so only a root whose replica set lost a member needs
// announcing again. The pass pings every distinct holder of a record
// that reached K replicas once, as one parallel wave (Holders); then, in
// sorted root order so the traffic is deterministic, it re-announces
// with a fresh walk each root that has a silent holder or fewer than K
// holders, and records where the new announce landed. No record reaches
// K on a swarm of K nodes or fewer, so there every root is re-announced
// on every pass. Returns the number of roots re-announced.
func (p *Peer) Reprovide() (int, netsim.Cost) {
	k := p.dht.K()
	var pings netsim.Cost
	silent := make(map[netsim.NodeID]bool)
	for _, h := range p.Holders() {
		cost, err := p.dht.Ping(h)
		pings = pings.Par(cost)
		silent[h.Addr] = err != nil
	}

	p.rootsMu.Lock()
	var due []CID
	for r, holders := range p.roots {
		stale := len(holders) < k
		for _, h := range holders {
			stale = stale || silent[h.Addr]
		}
		if stale {
			due = append(due, r)
		}
	}
	p.rootsMu.Unlock()
	sort.Slice(due, func(i, j int) bool { return bytes.Compare(due[i][:], due[j][:]) < 0 })

	total := pings
	n := 0
	for _, r := range due {
		holders, cost, err := p.dht.Provide(r.Key())
		p.setHolders(r, holders)
		total = total.Seq(cost)
		if err == nil {
			n++
		}
	}
	return n, total
}

// Holders returns the distinct contacts this peer's provider records
// landed on, counting only records that reached K replicas, in address
// order: the nodes the next Reprovide pings.
func (p *Peer) Holders() []dht.Contact {
	k := p.dht.K()
	seen := make(map[netsim.NodeID]bool)
	var out []dht.Contact
	p.rootsMu.Lock()
	for _, holders := range p.roots {
		if len(holders) < k {
			continue
		}
		for _, h := range holders {
			if !seen[h.Addr] {
				seen[h.Addr] = true
				out = append(out, h)
			}
		}
	}
	p.rootsMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Fetch retrieves a document by root CID with no advice on who holds it
// (FetchHinted with an empty hint) and announces this peer as a provider
// for it at once. The announce is background work: its traffic is billed
// to the fetch, its latency to nobody.
func (p *Peer) Fetch(root CID) ([]byte, netsim.Cost, error) {
	data, cost, _, ann, err := p.FetchHinted(root, "")
	if ann != nil {
		wave := p.Announce([]Announcement{*ann})
		wave.Latency = 0
		cost = cost.Par(wave)
	}
	return data, cost, err
}

// FetchHinted retrieves a document by root CID: local store first, then
// provider discovery through the DHT, block transfer, and per-block hash
// verification. Tampered blocks are rejected and the next provider is
// tried. On success the blocks are cached, and the serve-cache
// announcement that makes this peer a provider for them is returned for
// the caller to pass to Announce; it is nil on a local hit or a failed
// fetch.
//
// The returned latency is time to content. Publication must walk to all
// K closest nodes, retrieval need not: it sets off when the first
// provider record arrives, with the providers named by then, while the
// same walk runs on to convergence for the serve-cache announce. Only if
// none of those can serve are the providers the rest of the walk found
// tried, once it is over. The walk's messages are billed here; the
// announce's latency and its ADD_PROVIDER wave are billed by Announce.
//
// hint names a peer the caller was told holds the content (a publish
// transaction's provider). Content addressing makes that advice safe to
// act on before any provider record confirms it, so the fetch asks the
// hint alone, at time zero, and walks nowhere: its announce walks for
// itself (Announce). Only if the hint cannot serve (down, missing a
// block, tampered) does the fetch discover providers as an unhinted one
// does, once the hint has failed, never asking the hint again; missed
// reports that. An empty hint, or this peer's own address, is no hint.
func (p *Peer) FetchHinted(root CID, hint netsim.NodeID) (data []byte, total netsim.Cost, missed bool, ann *Announcement, err error) {
	if data, cost, err := p.assemble(root, nil, false); err == nil {
		return data, cost, false, nil, nil
	}

	var tried []dht.Contact
	if hint != "" && hint != p.Addr() {
		tried = []dht.Contact{{ID: dht.KeyOfString(string(hint)), Addr: hint}}
		if data, total, err = p.fetchFromNearest(tried, root); err == nil {
			return data, total, false, &Announcement{root: root, walk: dht.Walk{Key: root.Key()}}, nil
		}
		missed = true
	}
	tampered := errors.Is(err, ErrAllTampered)

	found, walk, err := p.dht.FindProviders(root.Key(), maxProviders)
	if err != nil {
		err = fmt.Errorf("%w: %s", ErrNoProviders, root.Short())
		if tampered {
			err = ErrAllTampered
		}
		return nil, total.Seq(walk), missed, nil, err
	}
	converged := total.Latency + walk.Latency
	walk.Latency = found.FirstCost.Latency
	total = total.Seq(walk)
	first := without(found.First, tried)
	data, cost, err := p.fetchFromNearest(first, root)
	total = total.Seq(cost)
	if late := without(found.All, append(tried, first...)); err != nil && len(late) > 0 {
		// Nobody the first answer named could serve. What the rest of the
		// walk turned up is known once the walk is over.
		tampered = tampered || errors.Is(err, ErrAllTampered)
		total = total.Par(netsim.Cost{Latency: converged})
		data, cost, err = p.fetchFromNearest(late, root)
		total = total.Seq(cost)
	}
	if err != nil {
		if tampered {
			err = ErrAllTampered
		}
		return nil, total, missed, nil, err
	}

	ann = &Announcement{root: root, walk: found.Walk}
	if converged > total.Latency {
		ann.lag = converged - total.Latency
	}
	return data, total, missed, ann, nil
}

// without returns the contacts of all that are not in drop.
func without(all, drop []dht.Contact) []dht.Contact {
	var out []dht.Contact
	for _, c := range all {
		dropped := false
		for _, d := range drop {
			dropped = dropped || d.Addr == c.Addr
		}
		if !dropped {
			out = append(out, c)
		}
	}
	return out
}

// fetchFromNearest pulls root from one of provs, nearest first: the
// candidates are pinged (in parallel) and tried in order of round-trip
// time — with more cache replicas the nearest one gets closer, which is
// where the DWeb latency advantage comes from. A sole candidate is not
// pinged: there is nothing to choose, and the block request finds out
// whether it is alive just as well. A swarming peer facing more than one
// candidate stripes each attempt across every candidate not yet tried.
func (p *Peer) fetchFromNearest(provs []dht.Contact, root CID) ([]byte, netsim.Cost, error) {
	type candidate struct {
		addr netsim.NodeID
		rtt  time.Duration
	}
	var others []dht.Contact
	for _, prov := range provs {
		if prov.Addr != p.Addr() {
			others = append(others, prov)
		}
	}
	var candidates []candidate
	var total netsim.Cost
	for _, prov := range others {
		var rtt time.Duration
		if len(others) > 1 {
			cost, err := p.dht.Ping(prov)
			total = total.Par(cost)
			if err != nil {
				continue
			}
			rtt = cost.Latency
		}
		candidates = append(candidates, candidate{addr: prov.Addr, rtt: rtt})
	}
	sort.Slice(candidates, func(i, j int) bool {
		if candidates[i].rtt != candidates[j].rtt {
			return candidates[i].rtt < candidates[j].rtt
		}
		return candidates[i].addr < candidates[j].addr
	})
	addrs := make([]netsim.NodeID, len(candidates))
	for i, c := range candidates {
		addrs[i] = c.addr
	}

	stripe := p.cfg.Swarming && len(addrs) > 1
	sawTamper := false
	for i := range addrs {
		data, cost, err := p.assemble(root, addrs[i:], stripe)
		total = total.Seq(cost)
		if err == nil {
			return data, total, nil
		}
		if errors.Is(err, ErrAllTampered) {
			sawTamper = true
		}
	}
	if sawTamper {
		return nil, total, ErrAllTampered
	}
	return nil, total, fmt.Errorf("%w: %s unreachable", ErrNoProviders, root.Short())
}

// assemble reads the document under root block by block and caches the
// blocks it fetched once the document is whole. The root comes from
// provs[0] alone, or from this peer's own store when provs is empty; a
// child comes from this peer's store when it holds one, and otherwise
// from provs[0], the child costs folding in sequence. With stripe set,
// child i is asked of provs[i mod n] first and then of each other
// provider in turn, and the stripes' costs fold in parallel
// (BitTorrent/Bitswap-style swarming, the paper's "higher throughput"
// mechanism for hot content). Every fetched block is verified by CID.
func (p *Peer) assemble(root CID, provs []netsim.NodeID, stripe bool) ([]byte, netsim.Cost, error) {
	var rootBlock []byte
	var total netsim.Cost
	var err error
	if len(provs) > 0 {
		rootBlock, total, err = p.fetchBlock(provs[0], root)
	} else if b, ok := p.blocks.Get(root); ok {
		rootBlock = b
	} else {
		err = fmt.Errorf("%w: %s not held", ErrNoProviders, root.Short())
	}
	if err != nil {
		return nil, total, err
	}
	leaf, children, _, err := DecodeBlock(rootBlock)
	if err != nil {
		return nil, total, err
	}
	if !stripe && len(provs) > 1 {
		provs = provs[:1]
	}

	out := leaf
	fetched := make([][]byte, len(children))
	var kids netsim.Cost
	for i, c := range children {
		cb, ok := p.blocks.Get(c)
		var cost netsim.Cost
		if !ok {
			if cb, cost, err = p.fetchAny(provs, i, c); err != nil {
				return nil, total.Seq(kids).Seq(cost), err
			}
			fetched[i] = cb
		}
		l, _, _, err := DecodeBlock(cb)
		if err != nil || l == nil {
			return nil, total.Seq(kids).Seq(cost), errCorruptManifest
		}
		out = append(out, l...)
		if stripe {
			kids = kids.Par(cost)
		} else {
			kids = kids.Seq(cost)
		}
	}

	if len(provs) > 0 {
		p.blocks.PutCached(root, rootBlock)
	}
	for i, cb := range fetched {
		if cb != nil {
			p.blocks.PutCached(children[i], cb)
		}
	}
	return out, total.Seq(kids), nil
}

// fetchAny retrieves and verifies block c from the first of provs that
// serves it, asking provs[from mod n] first and the others in turn.
func (p *Peer) fetchAny(provs []netsim.NodeID, from int, c CID) ([]byte, netsim.Cost, error) {
	var total netsim.Cost
	cause := ErrNoProviders // ErrAllTampered once any copy fails verification
	for a := range provs {
		cb, cost, err := p.fetchBlock(provs[(from+a)%len(provs)], c)
		total = total.Seq(cost)
		if err == nil {
			return cb, total, nil
		}
		if errors.Is(err, ErrAllTampered) {
			cause = ErrAllTampered
		}
	}
	return nil, total, fmt.Errorf("%w: block %s", cause, c.Short())
}

// fetchBlock retrieves and verifies one block from one provider.
func (p *Peer) fetchBlock(provider netsim.NodeID, cid CID) ([]byte, netsim.Cost, error) {
	resp, cost, err := p.net.CallCtx(context.Background(), p.Addr(), provider, blockReq{CID: cid})
	if err != nil {
		return nil, cost, err
	}
	r := resp.(blockResp)
	if !r.Found {
		return nil, cost, fmt.Errorf("store: provider %s lacks block %s", provider, cid.Short())
	}
	if !cid.Verify(r.Data) {
		// The cryptographic-hash identity caught a modified block.
		p.tamperDetected.Add(1)
		return nil, cost, fmt.Errorf("%w: block %s from %s", ErrAllTampered, cid.Short(), provider)
	}
	return r.Data, cost, nil
}
