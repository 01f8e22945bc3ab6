package baseline

import (
	"context"
	"encoding/json"
	"sort"

	"repro/internal/dht"
	"repro/internal/index"
	"repro/internal/netsim"
)

// UnverifiedP2P is the YaCy-style baseline: a keyword index over the DHT
// where publishers write term postings directly — no worker bees, no
// staking, no commit–reveal. The paper's criticism ("without an incentive
// scheme or a security incentive that guard against practical attacks")
// shows up concretely: Poison lets any peer insert spam under any term
// and nothing stops it.
type UnverifiedP2P struct {
	numShards int
}

// termRecord is the DHT value for one term shard: url → version text
// postings (urls only; this baseline is presence-based like early YaCy).
type termRecord struct {
	URLs    []string
	Version uint64
}

// NewUnverifiedP2P creates the baseline over an existing peer swarm.
func NewUnverifiedP2P(numShards int) *UnverifiedP2P {
	if numShards <= 0 {
		numShards = index.DefaultShards
	}
	return &UnverifiedP2P{numShards: numShards}
}

func (u *UnverifiedP2P) termKey(term string) dht.Key {
	return dht.KeyOfString("yacy:term:" + term)
}

// Publish writes the document's terms straight into the keyword DHT from
// the publishing peer.
func (u *UnverifiedP2P) Publish(d *dht.Node, url, text string) (netsim.Cost, error) {
	var total netsim.Cost
	seen := map[string]bool{}
	for _, tok := range index.Analyze(text) {
		if seen[tok.Term] {
			continue
		}
		seen[tok.Term] = true
		cost, err := u.appendURL(d, tok.Term, url)
		total = total.Seq(cost)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Poison inserts an arbitrary URL under a term — the index-poisoning
// attack no mechanism prevents in this baseline.
func (u *UnverifiedP2P) Poison(d *dht.Node, term, spamURL string) (netsim.Cost, error) {
	return u.appendURL(d, index.Stem(term), spamURL)
}

func (u *UnverifiedP2P) appendURL(d *dht.Node, term, url string) (netsim.Cost, error) {
	var rec termRecord
	val, seq, cost, err := d.GetCtx(context.Background(), u.termKey(term))
	if err == nil {
		if json.Unmarshal(val, &rec) != nil {
			rec = termRecord{}
		}
		rec.Version = seq
	} else if err != dht.ErrNotFound {
		return cost, err
	}
	for _, existing := range rec.URLs {
		if existing == url {
			return cost, nil
		}
	}
	rec.URLs = append(rec.URLs, url)
	sort.Strings(rec.URLs)
	rec.Version++
	data, _ := json.Marshal(rec)
	_, wcost, err := d.Put(u.termKey(term), data, rec.Version)
	return cost.Seq(wcost), err
}

// Search intersects the URL sets of the query terms.
func (u *UnverifiedP2P) Search(d *dht.Node, query string) ([]string, netsim.Cost, error) {
	terms := index.AnalyzeQuery(query)
	var total netsim.Cost
	var sets [][]string
	for _, term := range terms {
		val, _, cost, err := d.GetCtx(context.Background(), u.termKey(term))
		total = total.Seq(cost)
		if err == dht.ErrNotFound {
			return nil, total, nil
		}
		if err != nil {
			return nil, total, err
		}
		var rec termRecord
		if json.Unmarshal(val, &rec) != nil {
			return nil, total, nil
		}
		sets = append(sets, rec.URLs)
	}
	return intersectStrings(sets), total, nil
}

func intersectStrings(sets [][]string) []string {
	if len(sets) == 0 {
		return nil
	}
	out := sets[0]
	for _, s := range sets[1:] {
		var next []string
		i, j := 0, 0
		for i < len(out) && j < len(s) {
			switch {
			case out[i] < s[j]:
				i++
			case out[i] > s[j]:
				j++
			default:
				next = append(next, out[i])
				i++
				j++
			}
		}
		out = next
		if len(out) == 0 {
			return nil
		}
	}
	return out
}
