package queenbee

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// energyEngine publishes a small corpus with controlled term overlaps
// under two URL "sites" for the boolean/filter tests.
func energyEngine(t *testing.T) *Engine {
	t.Helper()
	e := New(WithSeed(77), WithPeers(10), WithBees(3))
	alice := e.NewAccount("alice", 5000)
	docs := map[string]string{
		"dweb://energy/solar": "solar panels convert sunlight into electricity",
		"dweb://energy/wind":  "wind turbines convert moving air into electricity",
		"dweb://food/nuts":    "walnut snacks give hikers quick electricity on the trail",
	}
	for url, text := range docs {
		if err := e.Publish(alice, url, text, nil); err != nil {
			t.Fatal(err)
		}
	}
	e.RunUntilIdle()
	return e
}

func urlSet(results []Result) map[string]bool {
	out := make(map[string]bool, len(results))
	for _, r := range results {
		out[r.URL] = true
	}
	return out
}

func TestQueryBuilderBoolean(t *testing.T) {
	e := energyEngine(t)
	cases := []struct {
		q    string
		want []string
	}{
		{"electricity", []string{"dweb://energy/solar", "dweb://energy/wind", "dweb://food/nuts"}},
		{"electricity -wind", []string{"dweb://energy/solar", "dweb://food/nuts"}},
		{"electricity site:dweb://energy/", []string{"dweb://energy/solar", "dweb://energy/wind"}},
		{"electricity -site:dweb://energy/", []string{"dweb://food/nuts"}},
		{"sunlight OR turbines", []string{"dweb://energy/solar", "dweb://energy/wind"}},
		{`"convert sunlight"`, []string{"dweb://energy/solar"}},
		{`electricity -"moving air"`, []string{"dweb://energy/solar", "dweb://food/nuts"}},
		{"(sunlight OR turbines) -wind", []string{"dweb://energy/solar"}},
	}
	for _, tc := range cases {
		resp, err := e.Query(tc.q).Run()
		if err != nil {
			t.Errorf("Query(%q): %v", tc.q, err)
			continue
		}
		got := urlSet(resp.Results)
		if len(got) != len(tc.want) {
			t.Errorf("Query(%q) = %v, want %v", tc.q, got, tc.want)
			continue
		}
		for _, u := range tc.want {
			if !got[u] {
				t.Errorf("Query(%q) = %v, missing %s", tc.q, got, u)
			}
		}
		if resp.Total != len(tc.want) {
			t.Errorf("Query(%q).Total = %d, want %d", tc.q, resp.Total, len(tc.want))
		}
	}
}

func TestQueryBuilderErrors(t *testing.T) {
	e := energyEngine(t)
	if _, err := e.Query("the of and").Run(); !errors.Is(err, ErrEmptyQuery) {
		t.Errorf("stopword-only: %v, want ErrEmptyQuery", err)
	}
	if _, err := e.Query("").Run(); !errors.Is(err, ErrEmptyQuery) {
		t.Errorf("empty: %v, want ErrEmptyQuery", err)
	}
	if _, err := e.Query("-electricity").Run(); !errors.Is(err, ErrBadSyntax) {
		t.Errorf("exclusion-only: %v, want ErrBadSyntax", err)
	}
	if _, err := e.Query(`"unterminated`).Run(); !errors.Is(err, ErrBadSyntax) {
		t.Errorf("unterminated quote: %v, want ErrBadSyntax", err)
	}
	if _, err := e.Query("site:dweb://energy/").Run(); !errors.Is(err, ErrBadSyntax) {
		t.Errorf("filter-only: %v, want ErrBadSyntax", err)
	}
}

func TestQueryBuilderFlatModes(t *testing.T) {
	e := energyEngine(t)
	// Flat All mode is what the Search wrapper runs: results must match
	// it exactly.
	br, err := e.Query("convert electricity").All().Run()
	if err != nil {
		t.Fatal(err)
	}
	wrapped, _, err := e.Search("convert electricity", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(wrapped) != 2 || len(br.Results) != len(wrapped) {
		t.Fatalf("builder All %d results vs wrapper %d, want 2", len(br.Results), len(wrapped))
	}
	for i := range wrapped {
		if br.Results[i] != wrapped[i] {
			t.Fatalf("builder/wrapper diverge at %d: %+v vs %+v", i, br.Results[i], wrapped[i])
		}
	}
	// Flat Any mode ORs the analyzed terms.
	ar, err := e.Query("sunlight turbines").Any().Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := urlSet(ar.Results); len(got) != 2 || !got["dweb://energy/solar"] || !got["dweb://energy/wind"] {
		t.Fatalf("any results = %+v", ar.Results)
	}
	// Phrase mode through the builder.
	pr, err := e.Query("convert sunlight").Phrase().Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Results) != 1 || pr.Results[0].URL != "dweb://energy/solar" {
		t.Fatalf("phrase results = %+v", pr.Results)
	}
	// Snippets through the builder.
	sr, err := e.Query("turbines").All().WithSnippets().Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Results) != 1 || !strings.Contains(sr.Results[0].Snippet, "«") {
		t.Fatalf("snippet results = %+v", sr.Results)
	}
}

func TestQueryBuilderExplain(t *testing.T) {
	e := energyEngine(t)
	resp, err := e.Query("electricity -wind site:dweb://").Explain().Run()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Explain == nil {
		t.Fatal("no explain trace")
	}
	if resp.Explain.Plan == nil || resp.Explain.Plan.Op != "and" {
		t.Fatalf("plan = %+v", resp.Explain.Plan)
	}
	if resp.Explain.Candidates != resp.Total {
		t.Fatalf("explain candidates %d != total %d", resp.Explain.Candidates, resp.Total)
	}
	if len(resp.Explain.Shards) == 0 {
		t.Fatal("no shard wave recorded")
	}
	if resp.Explain.TotalCost.Msgs < resp.Explain.LoadCost.Msgs {
		t.Fatalf("total msgs %d < load msgs %d",
			resp.Explain.TotalCost.Msgs, resp.Explain.LoadCost.Msgs)
	}
	if !strings.Contains(resp.Explain.String(), "and") {
		t.Fatalf("rendered plan: %q", resp.Explain.String())
	}
	// No trace unless asked.
	plain, err := e.Query("electricity").Run()
	if err != nil {
		t.Fatal(err)
	}
	if plain.Explain != nil {
		t.Fatal("unrequested explain trace")
	}
}

// paginationEngine publishes seven pages sharing one term so pages of
// three tile unevenly (3+3+1).
func paginationEngine(t *testing.T, seed uint64) *Engine {
	t.Helper()
	e := New(WithSeed(seed), WithPeers(10), WithBees(3))
	alice := e.NewAccount("alice", 10_000)
	for i := 0; i < 7; i++ {
		url := fmt.Sprintf("dweb://page/%d", i)
		text := fmt.Sprintf("melon harvest report number%d with filler%d detail", i, i)
		if err := e.Publish(alice, url, text, nil); err != nil {
			t.Fatal(err)
		}
	}
	e.RunUntilIdle()
	return e
}

func runPages(t *testing.T, e *Engine) ([][]Result, []Result) {
	t.Helper()
	var pages [][]Result
	for n := 1; n <= 3; n++ {
		resp, err := e.Query("melon").Page(n, 3).Run()
		if err != nil {
			t.Fatal(err)
		}
		if resp.Total != 7 {
			t.Fatalf("page %d total = %d, want 7", n, resp.Total)
		}
		pages = append(pages, resp.Results)
	}
	full, err := e.Query("melon").Limit(100).Run()
	if err != nil {
		t.Fatal(err)
	}
	return pages, full.Results
}

func TestQueryBuilderPagination(t *testing.T) {
	e := paginationEngine(t, 13)
	pages, full := runPages(t, e)
	if len(full) != 7 {
		t.Fatalf("full result set = %d, want 7", len(full))
	}
	if len(pages[0]) != 3 || len(pages[1]) != 3 || len(pages[2]) != 1 {
		t.Fatalf("page sizes = %d,%d,%d", len(pages[0]), len(pages[1]), len(pages[2]))
	}
	// Pages are disjoint and union, in order, to the unpaginated set.
	var stitched []Result
	seen := map[string]bool{}
	for _, p := range pages {
		for _, r := range p {
			if seen[r.URL] {
				t.Fatalf("URL %s appears on two pages", r.URL)
			}
			seen[r.URL] = true
			stitched = append(stitched, r)
		}
	}
	if len(stitched) != len(full) {
		t.Fatalf("stitched %d vs full %d", len(stitched), len(full))
	}
	for i := range full {
		if stitched[i] != full[i] {
			t.Fatalf("rank %d: paged %+v vs full %+v", i, stitched[i], full[i])
		}
	}
	// Past-the-end pages are empty but still report the total.
	past, err := e.Query("melon").Page(4, 3).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(past.Results) != 0 || past.Total != 7 {
		t.Fatalf("past-end page: %d results, total %d", len(past.Results), past.Total)
	}
	// Non-positive size falls back to the current page size (default
	// 10) but the page number still applies — page 2 of 10 is past the
	// seven results, never a silent repeat of page 1.
	fallback, err := e.Query("melon").Page(2, 0).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(fallback.Results) != 0 || fallback.Total != 7 {
		t.Fatalf("Page(2,0): %d results, total %d", len(fallback.Results), fallback.Total)
	}
}

// TestQueryBuilderDeepPageAllocation asks a one-page engine for the
// deepest page queenbeed accepts (page 2²⁰ of 100): the answer is empty
// with the true total, and ranking it sizes nothing by the page's
// offset. The single-term query takes the direct executor, the
// two-term one the candidate-list executor.
func TestQueryBuilderDeepPageAllocation(t *testing.T) {
	e := New(WithSeed(5), WithPeers(8), WithBees(2))
	if err := e.Publish(e.NewAccount("alice", 1000), "dweb://hive", "honey comb", nil); err != nil {
		t.Fatal(err)
	}
	e.RunUntilIdle()
	for _, q := range []string{"honey", "honey comb"} {
		if _, err := e.Query(q).Run(); err != nil { // warm the caches
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp, err := e.Query(q).Page(1<<20, 100).Run()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Total != 1 || len(resp.Results) != 0 {
			t.Fatalf("%q deep page: total %d, %d results", q, resp.Total, len(resp.Results))
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Fatalf("%q deep page allocated %d B", q, alloc)
		}
	}
}

// TestQueryBuilderPaginationDeterminism rebuilds an identical engine
// and expects byte-identical pages — the property the CI -count=2 rerun
// guards inside one process as well.
func TestQueryBuilderPaginationDeterminism(t *testing.T) {
	pagesA, fullA := runPages(t, paginationEngine(t, 13))
	pagesB, fullB := runPages(t, paginationEngine(t, 13))
	if len(fullA) != len(fullB) {
		t.Fatalf("full sets differ: %d vs %d", len(fullA), len(fullB))
	}
	for i := range fullA {
		if fullA[i] != fullB[i] {
			t.Fatalf("full rank %d differs: %+v vs %+v", i, fullA[i], fullB[i])
		}
	}
	for p := range pagesA {
		if len(pagesA[p]) != len(pagesB[p]) {
			t.Fatalf("page %d sizes differ", p)
		}
		for i := range pagesA[p] {
			if pagesA[p][i] != pagesB[p][i] {
				t.Fatalf("page %d rank %d differs: %+v vs %+v", p, i, pagesA[p][i], pagesB[p][i])
			}
		}
	}
}

// TestQueryRegisterAdOwnCampaignID pins the deterministic campaign-ID
// path: each registration returns the ID its own transaction's event
// carries, even with several matching campaigns live.
func TestQueryRegisterAdOwnCampaignID(t *testing.T) {
	e := energyEngine(t)
	advA := e.NewAccount("brand-a", 10_000)
	advB := e.NewAccount("brand-b", 10_000)
	idA, err := e.RegisterAd(advA, []string{"electricity"}, 10, 500)
	if err != nil {
		t.Fatal(err)
	}
	idB, err := e.RegisterAd(advB, []string{"electricity", "solar"}, 20, 500)
	if err != nil {
		t.Fatal(err)
	}
	if idA == idB {
		t.Fatalf("both registrations returned campaign %d", idA)
	}
	adA, ok := e.Cluster.QB.AdInfo(idA)
	if !ok || adA.Advertiser.String() != advA.Address() {
		t.Fatalf("campaign %d belongs to %v, want %s", idA, adA.Advertiser, advA.Address())
	}
	adB, ok := e.Cluster.QB.AdInfo(idB)
	if !ok || adB.Advertiser.String() != advB.Address() {
		t.Fatalf("campaign %d belongs to %v, want %s", idB, adB.Advertiser, advB.Address())
	}
	// A registered a lower-bid campaign: with both live, a search still
	// pairs B's higher bid first, and clicking pays against B's budget.
	_, ads, err := e.Search("electricity", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(ads) < 2 || ads[0].ID != idB {
		t.Fatalf("ads = %+v, want campaign %d first", ads, idB)
	}
}
