package queenbee

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func modesEngine(t *testing.T) (*Engine, *Account) {
	t.Helper()
	e := New(WithSeed(21), WithPeers(10), WithBees(3))
	alice := e.NewAccount("alice", 1000)
	docs := map[string]string{
		"dweb://m1": "solar panels convert sunlight into electricity",
		"dweb://m2": "wind turbines convert moving air into electricity",
		"dweb://m3": "sunlight exposure affects sleep patterns",
	}
	for url, text := range docs {
		if err := e.Publish(alice, url, text, nil); err != nil {
			t.Fatal(err)
		}
	}
	e.RunUntilIdle()
	return e, alice
}

func TestFacadeAny(t *testing.T) {
	e, _ := modesEngine(t)
	resp, err := e.Query("turbines panels").Any().Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("OR results = %+v", resp.Results)
	}
}

func TestFacadePhrase(t *testing.T) {
	e, _ := modesEngine(t)
	// "convert sunlight" is adjacent only in m1; m3 has "sunlight" in
	// another context.
	resp, err := e.Query("convert sunlight").Phrase().Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].URL != "dweb://m1" {
		t.Fatalf("phrase results = %+v", resp.Results)
	}
	// Non-adjacent order fails.
	resp, err = e.Query("sunlight convert").Phrase().Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 0 {
		t.Fatalf("reversed phrase should not match: %+v", resp.Results)
	}
}

func TestFacadeSnippets(t *testing.T) {
	e, _ := modesEngine(t)
	resp, err := e.Query("turbines").All().WithSnippets().Limit(5).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 {
		t.Fatalf("results = %+v", resp.Results)
	}
	if !strings.Contains(resp.Results[0].Snippet, "«") {
		t.Fatalf("snippet missing match marker: %q", resp.Results[0].Snippet)
	}
}

func TestFacadeAndVsOrSubset(t *testing.T) {
	e, _ := modesEngine(t)
	and, _, err := e.Search("convert electricity", 10)
	if err != nil {
		t.Fatal(err)
	}
	or, err := e.Query("convert electricity").Any().Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(and) > len(or.Results) {
		t.Fatalf("AND (%d) should never exceed OR (%d)", len(and), len(or.Results))
	}
	orURLs := urlSet(or.Results)
	for _, r := range and {
		if !orURLs[r.URL] {
			t.Fatalf("AND result %s missing from OR set", r.URL)
		}
	}
}

func TestFacadeStakeWeightedOption(t *testing.T) {
	e := New(WithSeed(32), WithPeers(8), WithBees(3),
		func(c *core.Config) { c.Contract.StakeWeightedQuorum = true })
	alice := e.NewAccount("alice", 1000)
	if err := e.Publish(alice, "dweb://sq", "stake weighted quorum works", nil); err != nil {
		t.Fatal(err)
	}
	e.RunUntilIdle()
	s := e.Stats()
	if s.TasksFinalized != 1 {
		t.Fatalf("stats = %+v", s)
	}
}
