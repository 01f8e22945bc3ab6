package core

import (
	"context"
	"strings"
	"testing"
)

// queryCluster publishes three documents with known term overlaps.
func queryCluster(t *testing.T) (*Cluster, *Frontend) {
	t.Helper()
	return queryClusterOf(t, 10)
}

// queryClusterOf is queryCluster on peers DWeb devices.
func queryClusterOf(t *testing.T, peers int) (*Cluster, *Frontend) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.NumPeers = peers
	cfg.NumBees = 3
	c := NewCluster(cfg)
	alice := c.NewAccount("alice", 1000)
	c.Seal()
	docs := map[string]string{
		"dweb://q1": "red apples grow on apple trees in the orchard",
		"dweb://q2": "red fire trucks race through the city streets",
		"dweb://q3": "green apples taste sour compared to red apples",
	}
	for url, text := range docs {
		if _, err := c.Publish(alice, c.Peers[0], url, text, nil); err != nil {
			t.Fatal(err)
		}
	}
	c.Seal()
	c.RunUntilIdle(6)
	return c, NewFrontend(c, c.Peers[3])
}

func TestSearchModeOR(t *testing.T) {
	_, fe := queryCluster(t)
	resp, err := fe.ExecuteCtx(context.Background(), Query{Raw: "orchard streets", Mode: PlanAny})
	if err != nil {
		t.Fatal(err)
	}
	// OR: q1 (orchard) and q2 (streets).
	if len(resp.Results) != 2 {
		t.Fatalf("OR results = %+v", resp.Results)
	}
	urls := map[string]bool{}
	for _, r := range resp.Results {
		urls[r.URL] = true
	}
	if !urls["dweb://q1"] || !urls["dweb://q2"] {
		t.Fatalf("OR results = %v", urls)
	}
}

func TestSearchModeORWithMissingTerm(t *testing.T) {
	_, fe := queryCluster(t)
	resp, err := fe.ExecuteCtx(context.Background(), Query{Raw: "orchard zzznonexistent", Mode: PlanAny})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].URL != "dweb://q1" {
		t.Fatalf("OR with missing term = %+v", resp.Results)
	}
}

func TestSearchModePhrase(t *testing.T) {
	_, fe := queryCluster(t)
	// "red apples" adjacent: q1 ("red apples grow") and q3 ("to red
	// apples"); q2 has "red" but no adjacent "apples".
	resp, err := fe.ExecuteCtx(context.Background(), Query{Raw: "red apples", Mode: PlanPhrase})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("phrase results = %+v", resp.Results)
	}
	for _, r := range resp.Results {
		if r.URL == "dweb://q2" {
			t.Fatal("q2 should not phrase-match 'red apples'")
		}
	}

	// AND would also match nothing extra here, but phrase must reject
	// non-adjacent orders: "apples red" never occurs.
	resp, err = fe.ExecuteCtx(context.Background(), Query{Raw: "apples red", Mode: PlanPhrase})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 0 {
		t.Fatalf("reversed phrase should not match: %+v", resp.Results)
	}
}

func TestSearchModeAndDefault(t *testing.T) {
	_, fe := queryCluster(t)
	and, err := fe.Search("red apples", 10)
	if err != nil {
		t.Fatal(err)
	}
	// The parser's implicit AND is the same conjunction.
	parsed, err := fe.ExecuteCtx(context.Background(), Query{Raw: "red apples"})
	if err != nil {
		t.Fatal(err)
	}
	if len(and.Results) == 0 || len(and.Results) != len(parsed.Results) {
		t.Fatalf("flat AND %v and parsed AND %v disagree", urlsOf(and), urlsOf(parsed))
	}
}

func TestSnippetsAttached(t *testing.T) {
	_, fe := queryCluster(t)
	resp, err := fe.ExecuteCtx(context.Background(), Query{Raw: "orchard", Mode: PlanAll, Limit: 5, Snippets: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 {
		t.Fatalf("results = %+v", resp.Results)
	}
	sn := resp.Results[0].Snippet
	if !strings.Contains(sn, "«orchard»") {
		t.Fatalf("snippet = %q, want marked match", sn)
	}
	if !strings.Contains(sn, "trees") {
		t.Fatalf("snippet = %q, want surrounding context", sn)
	}
}

func TestSnippetFunction(t *testing.T) {
	text := "one two three four five six seven eight nine ten"
	sn := Snippet(text, []string{"five"}, 4)
	if !strings.Contains(sn, "«five»") {
		t.Fatalf("snippet = %q", sn)
	}
	if strings.Contains(sn, "one") || strings.Contains(sn, "ten") {
		t.Fatalf("window too wide: %q", sn)
	}
	// No match: prefix fallback.
	sn = Snippet(text, []string{"missing"}, 3)
	if !strings.HasPrefix(sn, "one two three") {
		t.Fatalf("fallback snippet = %q", sn)
	}
	// Match at the very start.
	sn = Snippet(text, []string{"one"}, 4)
	if !strings.HasPrefix(sn, "«one»") {
		t.Fatalf("edge snippet = %q", sn)
	}
}

func TestPlanModeString(t *testing.T) {
	if PlanParsed.String() != "parsed" || PlanAll.String() != "all" ||
		PlanAny.String() != "any" || PlanPhrase.String() != "phrase" {
		t.Fatal("mode names wrong")
	}
	if PlanMode(99).String() == "" {
		t.Fatal("unknown mode should still render")
	}
}

func TestSearchKDefaults(t *testing.T) {
	_, fe := queryCluster(t)
	resp, err := fe.Search("red", 0) // k unset → 10
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) == 0 {
		t.Fatal("default K should return results")
	}
}
