package oracle

import (
	"testing"

	"repro/internal/index"
	"repro/internal/query"
)

func urls(r Response) []string {
	var out []string
	for _, x := range r.Results {
		out = append(out, x.URL)
	}
	return out
}

// TestOracleBooleanSemantics pins the model's matching rules on a
// hand-checked corpus: terms, AND, OR, adjacent phrases, exclusions,
// site: filters, and a republish replacing a page's old terms.
func TestOracleBooleanSemantics(t *testing.T) {
	o := New(0)
	o.Publish("dweb://a/1", "solar wind turbine")
	o.Publish("dweb://a/2", "wind solar farm")
	o.Publish("dweb://b/3", "solar panels")
	o.Publish("dweb://b/4", "nuclear plant")
	o.Publish("dweb://b/4", "tidal turbine") // republished: nuclear is gone
	for _, tc := range []struct {
		q     string
		total int
	}{
		{"solar", 3},
		{"solar wind", 2},
		{"wind OR panels", 3},
		{`"solar wind"`, 1},
		{`"wind solar"`, 1},
		{"solar -wind", 1},
		{"solar site:dweb://a/", 2},
		{"solar -site:dweb://a/", 1},
		{"nuclear", 0},
		{"turbine", 2},
	} {
		root, err := query.Parse(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		if got := o.Search(root, nil, 0, 10); got.Total != tc.total || len(got.Results) != tc.total {
			t.Errorf("%q: total %d, %v; want %d", tc.q, got.Total, urls(got), tc.total)
		}
	}
	if docs, tokens := o.Stats(); docs != 4 || tokens != 3+3+2+2 {
		t.Fatalf("stats = %d docs %d tokens; want the first versions' 4 docs, 10 tokens", docs, tokens)
	}
}

// TestOracleOrderAndPages: equal scores break ties by DocID ascending,
// ranks blend in by their maximum, and pages tile the ranking.
func TestOracleOrderAndPages(t *testing.T) {
	o := New(1)
	pages := []string{"dweb://t/1", "dweb://t/2", "dweb://t/3", "dweb://t/4"}
	for _, u := range pages {
		o.Publish(u, "same words here")
	}
	root, err := Flat("same words", query.KindAnd)
	if err != nil {
		t.Fatal(err)
	}
	all := o.Search(root, nil, 0, 10)
	for i := 1; i < len(all.Results); i++ {
		if index.DocIDOf(all.Results[i-1].URL) >= index.DocIDOf(all.Results[i].URL) {
			t.Fatalf("tied results not in DocID order: %v", urls(all))
		}
	}
	boosted := o.Search(root, map[string]float64{"dweb://t/3": 0.5, "dweb://t/1": 0.25}, 0, 10)
	if got := urls(boosted); got[0] != "dweb://t/3" || got[1] != "dweb://t/1" || boosted.Results[0].Score != 2*boosted.Results[2].Score {
		t.Fatalf("rank blend order %v scores %+v", got, boosted.Results)
	}
	var tiled []string
	for off := 0; off < 4; off += 3 {
		tiled = append(tiled, urls(o.Search(root, nil, off, 3))...)
	}
	if len(tiled) != 4 || tiled[3] != all.Results[3].URL {
		t.Fatalf("pages %v, want %v", tiled, urls(all))
	}
	if _, err := Flat("the of", query.KindOr); err == nil {
		t.Fatal("a stopword-only flat query must fail like the engine's")
	}
}
