package netsim

import (
	"context"
	"errors"
	"sort"
	"sync"
	"testing"
	"time"
)

func echoHandler(from NodeID, req any) (any, error) { return req, nil }

func newTestNet(t *testing.T, ids ...NodeID) *Network {
	t.Helper()
	n := New(DefaultConfig())
	for _, id := range ids {
		n.Register(id, echoHandler)
	}
	return n
}

func TestCallRoundTrip(t *testing.T) {
	n := newTestNet(t, "a", "b")
	resp, cost, err := n.CallCtx(context.Background(), "a", "b", "hello")
	if err != nil {
		t.Fatal(err)
	}
	if resp != "hello" {
		t.Fatalf("resp = %v, want hello", resp)
	}
	if cost.Latency < 2*10*time.Millisecond/2 {
		t.Fatalf("latency %v implausibly small", cost.Latency)
	}
	if cost.Bytes != 2*DefaultMsgBytes {
		t.Fatalf("bytes = %d, want %d", cost.Bytes, 2*DefaultMsgBytes)
	}
	if cost.Msgs != 1 {
		t.Fatalf("msgs = %d, want 1", cost.Msgs)
	}
}

func TestCallUnknownNode(t *testing.T) {
	n := newTestNet(t, "a")
	if _, _, err := n.CallCtx(context.Background(), "a", "ghost", 1); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v, want ErrUnknownNode", err)
	}
	if _, _, err := n.CallCtx(context.Background(), "ghost", "a", 1); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v, want ErrUnknownNode", err)
	}
}

func TestCallDownNode(t *testing.T) {
	n := newTestNet(t, "a", "b")
	n.SetDown("b", true)
	if _, _, err := n.CallCtx(context.Background(), "a", "b", 1); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("err = %v, want ErrNodeDown", err)
	}
	if !n.IsDown("b") {
		t.Fatal("IsDown should report true")
	}
	n.SetDown("b", false)
	if _, _, err := n.CallCtx(context.Background(), "a", "b", 1); err != nil {
		t.Fatalf("recovered node should accept calls: %v", err)
	}
}

func TestFailedCallStillCostsTime(t *testing.T) {
	n := newTestNet(t, "a", "b")
	n.SetDown("b", true)
	_, cost, _ := n.CallCtx(context.Background(), "a", "b", 1)
	if cost.Latency <= 0 {
		t.Fatal("failed call should cost simulated time")
	}
}

func TestPartition(t *testing.T) {
	n := newTestNet(t, "a", "b", "c")
	n.SetPartition(map[NodeID]int{"a": 0, "b": 1, "c": 0})
	if _, _, err := n.CallCtx(context.Background(), "a", "b", 1); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("cross-partition err = %v, want ErrPartitioned", err)
	}
	if _, _, err := n.CallCtx(context.Background(), "a", "c", 1); err != nil {
		t.Fatalf("same-partition call failed: %v", err)
	}
	n.SetPartition(nil) // heal
	if _, _, err := n.CallCtx(context.Background(), "a", "b", 1); err != nil {
		t.Fatalf("healed call failed: %v", err)
	}
}

func TestDropRate(t *testing.T) {
	n := newTestNet(t, "a", "b")
	n.SetDropRate(1.0)
	if _, _, err := n.CallCtx(context.Background(), "a", "b", 1); !errors.Is(err, ErrDropped) {
		t.Fatalf("err = %v, want ErrDropped", err)
	}
	n.SetDropRate(0)
	if _, _, err := n.CallCtx(context.Background(), "a", "b", 1); err != nil {
		t.Fatalf("err after clearing drop rate: %v", err)
	}
}

func TestDropRatePartial(t *testing.T) {
	n := newTestNet(t, "a", "b")
	n.SetDropRate(0.5)
	drops := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		if _, _, err := n.CallCtx(context.Background(), "a", "b", 1); err != nil {
			drops++
		}
	}
	if drops < trials/3 || drops > 2*trials/3 {
		t.Fatalf("drops = %d/%d, want ~half", drops, trials)
	}
}

func TestOverloadShedding(t *testing.T) {
	n := newTestNet(t, "a", "srv")
	n.SetCapacity("srv", 100)
	n.SetOfferedLoad("srv", 400) // 4x over capacity
	ok := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		if _, _, err := n.CallCtx(context.Background(), "a", "srv", 1); err == nil {
			ok++
		}
	}
	frac := float64(ok) / trials
	if frac < 0.15 || frac > 0.35 {
		t.Fatalf("survival fraction = %v, want ~0.25", frac)
	}
}

func TestQueueingDelayGrowsWithUtilization(t *testing.T) {
	n := newTestNet(t, "a", "srv")
	n.SetCapacity("srv", 100)

	measure := func(load float64) time.Duration {
		n.SetOfferedLoad("srv", load)
		var total time.Duration
		const trials = 50
		for i := 0; i < trials; i++ {
			_, c, err := n.CallCtx(context.Background(), "a", "srv", 1)
			if err != nil {
				t.Fatalf("unexpected shed at load %v: %v", load, err)
			}
			total += c.Latency
		}
		return total / trials
	}

	low := measure(10)  // rho = 0.1
	high := measure(90) // rho = 0.9
	if high <= low {
		t.Fatalf("latency at rho=0.9 (%v) should exceed rho=0.1 (%v)", high, low)
	}
}

func TestCostSeqPar(t *testing.T) {
	a := Cost{Latency: 10 * time.Millisecond, Bytes: 100, Msgs: 1}
	b := Cost{Latency: 30 * time.Millisecond, Bytes: 50, Msgs: 2}
	seq := a.Seq(b)
	if seq.Latency != 40*time.Millisecond || seq.Bytes != 150 || seq.Msgs != 3 {
		t.Fatalf("Seq = %+v", seq)
	}
	par := a.Par(b)
	if par.Latency != 30*time.Millisecond || par.Bytes != 150 || par.Msgs != 3 {
		t.Fatalf("Par = %+v", par)
	}
}

type sized struct{ n int }

func (s sized) WireSize() int { return s.n }

func TestSizerPayloads(t *testing.T) {
	n := newTestNet(t, "a", "b")
	n.Register("b", func(from NodeID, req any) (any, error) {
		return sized{n: 1000}, nil
	})
	_, cost, err := n.CallCtx(context.Background(), "a", "b", sized{n: 500})
	if err != nil {
		t.Fatal(err)
	}
	if cost.Bytes != 1500 {
		t.Fatalf("bytes = %d, want 1500", cost.Bytes)
	}
}

func TestBandwidthAddsTransferDelay(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JitterFrac = 0
	cfg.MaxExtra = 0
	n := New(cfg)
	n.Register("a", echoHandler)
	n.Register("b", echoHandler)
	_, small, _ := n.CallCtx(context.Background(), "a", "b", sized{n: 100})
	_, large, _ := n.CallCtx(context.Background(), "a", "b", sized{n: 10 << 20}) // 10 MB at 10 MB/s ≈ 1s
	if large.Latency-small.Latency < 500*time.Millisecond {
		t.Fatalf("large transfer %v not slower than small %v", large.Latency, small.Latency)
	}
}

func TestStats(t *testing.T) {
	n := newTestNet(t, "a", "b")
	n.CallCtx(context.Background(), "a", "b", 1)
	n.SetDown("b", true)
	n.CallCtx(context.Background(), "a", "b", 1)
	s := n.StatsSnapshot()
	if s.Calls != 2 {
		t.Fatalf("Calls = %d, want 2", s.Calls)
	}
	if s.Failures != 1 {
		t.Fatalf("Failures = %d, want 1", s.Failures)
	}
	if s.Bytes == 0 {
		t.Fatal("Bytes should be counted")
	}
	n.ResetStats()
	if s := n.StatsSnapshot(); s.Calls != 0 {
		t.Fatal("ResetStats did not zero counters")
	}
}

func TestDeterministicLatency(t *testing.T) {
	run := func() []time.Duration {
		n := New(DefaultConfig())
		n.Register("a", echoHandler)
		n.Register("b", echoHandler)
		var out []time.Duration
		for i := 0; i < 20; i++ {
			_, c, _ := n.CallCtx(context.Background(), "a", "b", i)
			out = append(out, c.Latency)
		}
		return out
	}
	x, y := run(), run()
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("nondeterministic latency at call %d: %v vs %v", i, x[i], y[i])
		}
	}
}

// TestPerLinkStreamsIgnoreInterleaving is the concurrency-determinism
// contract: the i-th call on a link draws the same
// jitter regardless of how calls on other links interleave with it.
func TestPerLinkStreamsIgnoreInterleaving(t *testing.T) {
	const calls = 32
	pairs := [][2]NodeID{{"a", "b"}, {"a", "c"}, {"b", "c"}, {"c", "a"}}

	sequential := func() map[[2]NodeID][]time.Duration {
		n := newTestNet(t, "a", "b", "c")
		out := make(map[[2]NodeID][]time.Duration)
		for i := 0; i < calls; i++ {
			for _, p := range pairs {
				_, c, err := n.CallCtx(context.Background(), p[0], p[1], i)
				if err != nil {
					t.Fatal(err)
				}
				out[p] = append(out[p], c.Latency)
			}
		}
		return out
	}

	concurrent := func() map[[2]NodeID][]time.Duration {
		n := newTestNet(t, "a", "b", "c")
		out := make(map[[2]NodeID][]time.Duration)
		var mu sync.Mutex
		var wg sync.WaitGroup
		for _, p := range pairs {
			wg.Add(1)
			go func(p [2]NodeID) {
				defer wg.Done()
				seq := make([]time.Duration, 0, calls)
				for i := 0; i < calls; i++ {
					_, c, err := n.CallCtx(context.Background(), p[0], p[1], i)
					if err != nil {
						t.Error(err)
						return
					}
					seq = append(seq, c.Latency)
				}
				mu.Lock()
				out[p] = seq
				mu.Unlock()
			}(p)
		}
		wg.Wait()
		return out
	}

	want, got := sequential(), concurrent()
	for _, p := range pairs {
		for i := range want[p] {
			if got[p][i] != want[p][i] {
				t.Fatalf("pair %v call %d: latency %v concurrent vs %v sequential",
					p, i, got[p][i], want[p][i])
			}
		}
	}
}

// TestSameLinkConcurrentDrawsConserved: goroutines racing on ONE link may
// swap which call observes which draw, but the multiset of draws — and so
// every aggregate cost — is invariant.
func TestSameLinkConcurrentDrawsConserved(t *testing.T) {
	const calls, workers = 40, 4
	collect := func(parallel bool) []time.Duration {
		n := newTestNet(t, "a", "b")
		all := make([]time.Duration, 0, calls*workers)
		if !parallel {
			for i := 0; i < calls*workers; i++ {
				_, c, _ := n.CallCtx(context.Background(), "a", "b", i)
				all = append(all, c.Latency)
			}
		} else {
			var mu sync.Mutex
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					local := make([]time.Duration, 0, calls)
					for i := 0; i < calls; i++ {
						_, c, _ := n.CallCtx(context.Background(), "a", "b", i)
						local = append(local, c.Latency)
					}
					mu.Lock()
					all = append(all, local...)
					mu.Unlock()
				}()
			}
			wg.Wait()
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		return all
	}
	want, got := collect(false), collect(true)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("draw multiset diverged at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestUnregister(t *testing.T) {
	n := newTestNet(t, "a", "b")
	n.Unregister("b")
	if _, _, err := n.CallCtx(context.Background(), "a", "b", 1); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v, want ErrUnknownNode", err)
	}
	if _, _, err := n.CallCtx(context.Background(), "b", "a", 1); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("call from unregistered node: err = %v, want ErrUnknownNode", err)
	}
}

func TestReRegisterKeepsPosition(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JitterFrac = 0
	n := New(cfg)
	n.Register("a", echoHandler)
	n.Register("b", echoHandler)
	_, before, _ := n.CallCtx(context.Background(), "a", "b", 1)
	n.Register("b", echoHandler) // replace handler
	_, after, _ := n.CallCtx(context.Background(), "a", "b", 1)
	if before.Latency != after.Latency {
		t.Fatalf("latency changed after re-register: %v vs %v", before.Latency, after.Latency)
	}
}

// TestCallCtxCancelledShortCircuits: a call issued under a done context
// never hits the wire — zero cost, no bytes, the typed sentinel, and
// both the netsim and the context errors matchable.
func TestCallCtxCancelledShortCircuits(t *testing.T) {
	n := newTestNet(t, "a", "b")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	resp, cost, err := n.CallCtx(ctx, "a", "b", "hello")
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCancelled wrapping context.Canceled", err)
	}
	if resp != nil || cost != (Cost{}) {
		t.Fatalf("cancelled call leaked work: resp=%v cost=%+v", resp, cost)
	}
}

// TestCallCtxCancelConsumesNoDraws pins the stream-desync contract:
// interleaving cancelled CallCtx calls between executed ones must not
// shift the i-th executed call's jitter draws on any link — the two
// runs below observe byte-identical per-call costs.
func TestCallCtxCancelConsumesNoDraws(t *testing.T) {
	run := func(withCancelled bool) []Cost {
		n := newTestNet(t, "a", "b", "c")
		done, cancel := context.WithCancel(context.Background())
		cancel()
		var costs []Cost
		for i := 0; i < 6; i++ {
			if withCancelled {
				// Abandoned calls on BOTH links, before every executed call.
				if _, _, err := n.CallCtx(done, "a", "b", i); !errors.Is(err, ErrCancelled) {
					t.Fatalf("want cancelled, got %v", err)
				}
				if _, _, err := n.CallCtx(done, "a", "c", i); !errors.Is(err, ErrCancelled) {
					t.Fatalf("want cancelled, got %v", err)
				}
			}
			_, c1, err := n.CallCtx(context.Background(), "a", "b", i)
			if err != nil {
				t.Fatal(err)
			}
			_, c2, err := n.CallCtx(context.Background(), "a", "c", i)
			if err != nil {
				t.Fatal(err)
			}
			costs = append(costs, c1, c2)
		}
		return costs
	}
	clean, interleaved := run(false), run(true)
	for i := range clean {
		if clean[i] != interleaved[i] {
			t.Fatalf("executed call %d drew differently with cancellations interleaved: %+v vs %+v",
				i, clean[i], interleaved[i])
		}
	}
}

// TestCallCtxLiveMatchesCall: a live context changes nothing about the
// call — same draws, same costs, same stats accounting as a call under
// a nil context, which never cancels.
func TestCallCtxLiveMatchesCall(t *testing.T) {
	n1 := newTestNet(t, "a", "b")
	n2 := newTestNet(t, "a", "b")
	for i := 0; i < 4; i++ {
		_, c1, err1 := n1.CallCtx(nil, "a", "b", i)
		_, c2, err2 := n2.CallCtx(context.Background(), "a", "b", i)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if c1 != c2 {
			t.Fatalf("call %d: nil-context cost %+v, live-context cost %+v", i, c1, c2)
		}
	}
	if s1, s2 := n1.StatsSnapshot(), n2.StatsSnapshot(); s1 != s2 {
		t.Fatalf("stats diverged: %+v vs %+v", s1, s2)
	}
}
