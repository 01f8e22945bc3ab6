package store

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/dht"
	"repro/internal/netsim"
)

// reprovideFixture boots a 24-peer swarm on which peers[0] publishes 40
// documents and peers[9] fetches the first 8 of them: half with the
// serve-cache announce inline (Fetch), half returned and announced
// together afterwards, as the round engine does.
func reprovideFixture(t *testing.T) (*netsim.Network, []*Peer, []CID) {
	t.Helper()
	net, peers := buildPeerSwarm(t, 24, PeerConfig{})
	roots := make([]CID, 40)
	for i := range roots {
		root, _, err := peers[0].Add(bytes.Repeat([]byte(fmt.Sprintf("reprovide %d ", i)), 20))
		if err != nil {
			t.Fatal(err)
		}
		roots[i] = root
	}
	fetcher := peers[9]
	for _, root := range roots[:4] {
		if _, _, err := fetcher.Fetch(root); err != nil {
			t.Fatal(err)
		}
	}
	var anns []Announcement
	for _, root := range roots[4:8] {
		_, _, _, ann, err := fetcher.FetchHinted(root, "")
		if err != nil {
			t.Fatal(err)
		}
		anns = append(anns, *ann)
	}
	fetcher.Announce(anns)
	return net, peers, roots
}

// holdersOf returns where root's latest announce from p landed.
func holdersOf(p *Peer, root CID) []dht.Contact {
	p.rootsMu.Lock()
	defer p.rootsMu.Unlock()
	return p.roots[root]
}

// TestReprovideHealthyPassPingsEachHolderOnce: provider records never
// expire, so a pass over records whose holders all answer re-announces
// nothing. It costs exactly one ping per distinct holder — for the
// publisher's own records and for the fetcher's cached ones alike — and
// no other message.
func TestReprovideHealthyPassPingsEachHolderOnce(t *testing.T) {
	k := dht.DefaultConfig().K
	net, peers, roots := reprovideFixture(t)
	for i, p := range []*Peer{peers[0], peers[9]} {
		want := 40
		if i == 1 {
			want = 8
		}
		for _, root := range roots[:want] {
			if got := len(holdersOf(p, root)); got != k {
				t.Fatalf("%s: root %s landed on %d holders, want %d", p.Addr(), root.Short(), got, k)
			}
		}
		holders := p.Holders()
		if len(holders) < k || len(holders) > len(peers)-1 {
			t.Fatalf("%s: %d distinct holders", p.Addr(), len(holders))
		}
		calls := recordCalls(net, peers, p.Addr())
		n, cost := p.Reprovide()
		pings := targets(*calls, "dht.pingReq")
		if n != 0 {
			t.Fatalf("%s: healthy pass re-announced %d roots", p.Addr(), n)
		}
		if cost.Msgs != len(holders) || len(pings) != len(holders) {
			t.Fatalf("%s: healthy pass cost %d msgs, pinged %d nodes; want one ping to each of %d holders",
				p.Addr(), cost.Msgs, len(pings), len(holders))
		}
		for _, h := range holders {
			if pings[h.Addr] != 1 {
				t.Fatalf("%s: holder %s pinged %d times", p.Addr(), h.Addr, pings[h.Addr])
			}
		}
	}
}

// TestReprovideReannouncesWhatChurnTook: with one holder down, exactly
// the roots whose replica set held it are re-announced, each onto K live
// contacts; the other roots keep their sets. A peer that holds none of
// the records still finds the publisher for every root, and the next
// pass is reprovide-free again.
func TestReprovideReannouncesWhatChurnTook(t *testing.T) {
	k := dht.DefaultConfig().K
	net, peers, roots := reprovideFixture(t)
	pub := peers[0]
	holders := pub.Holders()
	down := holders[0]
	before := make(map[CID][]dht.Contact, len(roots))
	held := 0
	for _, root := range roots {
		before[root] = holdersOf(pub, root)
		for _, h := range before[root] {
			if h.Addr == down.Addr {
				held++
			}
		}
	}
	if held == 0 || held == len(roots) {
		t.Fatalf("fixture: holder %s holds %d of %d roots", down.Addr, held, len(roots))
	}
	net.SetDown(down.Addr, true)

	n, _ := pub.Reprovide()
	if n != held {
		t.Fatalf("re-announced %d roots, holder %s held %d", n, down.Addr, held)
	}
	for _, root := range roots {
		after := holdersOf(pub, root)
		lost := false
		for _, h := range before[root] {
			lost = lost || h.Addr == down.Addr
		}
		if !lost {
			if fmt.Sprint(after) != fmt.Sprint(before[root]) {
				t.Fatalf("root %s kept its holders, yet its set moved from %v to %v", root.Short(), before[root], after)
			}
			continue
		}
		if len(after) != k {
			t.Fatalf("root %s re-announced onto %d holders, want %d", root.Short(), len(after), k)
		}
		for _, h := range after {
			if net.IsDown(h.Addr) {
				t.Fatalf("root %s re-announced onto the down holder", root.Short())
			}
		}
	}

	// Each root is looked up from a live peer that holds none of its
	// provider records, so the lookup has to walk.
	for _, root := range roots {
		holds := make(map[netsim.NodeID]bool)
		for _, p := range []*Peer{pub, peers[9]} {
			for _, h := range holdersOf(p, root) {
				holds[h.Addr] = true
			}
		}
		var reader *Peer
		for _, p := range peers[1:] {
			if !holds[p.Addr()] && p != peers[9] && !net.IsDown(p.Addr()) {
				reader = p
				break
			}
		}
		if reader == nil {
			t.Fatalf("fixture: every live peer holds a record for root %s", root.Short())
		}
		found, _, err := reader.DHT().FindProviders(root.Key(), 0)
		listed := false
		for _, c := range found.All {
			listed = listed || c.Addr == pub.Addr()
		}
		if err != nil || !listed {
			t.Fatalf("root %s: %s found providers %v, err=%v; want the publisher", root.Short(), reader.Addr(), found.All, err)
		}
	}

	again := pub.Holders()
	n, cost := pub.Reprovide()
	if n != 0 || cost.Msgs != len(again) {
		t.Fatalf("next pass re-announced %d roots for %d msgs; want 0 and one ping to each of %d holders", n, cost.Msgs, len(again))
	}
}

// TestReprovideSmallSwarmReannouncesEveryRoot: on a swarm of K nodes or
// fewer no replica set reaches K, so every pass re-announces every root
// with a fresh walk, and pings nobody first.
func TestReprovideSmallSwarmReannouncesEveryRoot(t *testing.T) {
	k := dht.DefaultConfig().K
	for _, size := range []int{1, k / 2, k} {
		net, peers := buildPeerSwarm(t, size, PeerConfig{})
		pub := peers[0]
		for i := 0; i < 5; i++ {
			if _, _, err := pub.Add([]byte(fmt.Sprintf("small swarm %d", i))); err != nil {
				t.Fatal(err)
			}
		}
		calls := recordCalls(net, peers, pub.Addr())
		for pass := 0; pass < 2; pass++ {
			if n, _ := pub.Reprovide(); n != 5 {
				t.Fatalf("%d-node swarm, pass %d: re-announced %d of 5 roots", size, pass, n)
			}
		}
		if pings := targets(*calls, "dht.pingReq"); len(pings) != 0 {
			t.Fatalf("%d-node swarm: pinged %v", size, pings)
		}
	}
}
