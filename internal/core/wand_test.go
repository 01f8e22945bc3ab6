package core

import (
	"context"
	"fmt"
	"testing"
)

// TestSetUseBlockMaxToggle: flipping the block-max switch on a live
// frontend must never change results — only the work counters. The same
// frontend answers the same queries on both paths, which also proves the
// memoized rank view and cursor cache survive mode changes.
func TestSetUseBlockMaxToggle(t *testing.T) {
	c := smallCluster(t)
	alice := c.NewAccount("alice", 1_000_000)
	c.Seal()
	for i := 0; i < 30; i++ {
		url := fmt.Sprintf("dweb://toggle/%02d", i)
		text := fmt.Sprintf("shared toggle corpus document %d with honey and wax number%d", i, i%5)
		if _, err := c.Publish(alice, c.Peers[i%len(c.Peers)], url, text, nil); err != nil {
			t.Fatal(err)
		}
		c.Seal()
	}
	c.RunUntilIdle(60)

	fe := NewFrontend(c, c.Peers[5])
	if !fe.UseBlockMax() {
		t.Fatal("block-max should be the default")
	}
	queries := []Query{
		{Raw: "toggle", Limit: 5},
		{Raw: "honey wax", Mode: PlanAll, Limit: 10},
		{Raw: "number0 OR number3", Limit: 4, Offset: 2},
	}
	for _, q := range queries {
		wand, err := fe.ExecuteCtx(context.Background(), q)
		if err != nil {
			t.Fatalf("%q (wand): %v", q.Raw, err)
		}
		fe.SetUseBlockMax(false)
		ex, err := fe.ExecuteCtx(context.Background(), q)
		fe.SetUseBlockMax(true)
		if err != nil {
			t.Fatalf("%q (exhaustive): %v", q.Raw, err)
		}
		if wand.Total != ex.Total || len(wand.Results) != len(ex.Results) {
			t.Fatalf("%q: total/len mismatch: %d/%d vs %d/%d",
				q.Raw, wand.Total, len(wand.Results), ex.Total, len(ex.Results))
		}
		for i := range ex.Results {
			if wand.Results[i] != ex.Results[i] {
				t.Fatalf("%q result %d: %+v vs %+v", q.Raw, i, wand.Results[i], ex.Results[i])
			}
		}
		if ex.ScoreStats.BlocksSkipped != 0 || ex.ScoreStats.DocsSkipped != 0 {
			t.Fatalf("%q: exhaustive path skipped: %+v", q.Raw, ex.ScoreStats)
		}
	}
}
