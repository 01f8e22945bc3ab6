package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentiles(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := percentile(v, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 || mean(nil) != 0 {
		t.Error("empty samples must read 0")
	}
	if !near(median([]float64{4, 1, 3, 2}), 2.5) {
		t.Error("median of an even sample interpolates")
	}
}

// The driver computes spreads with Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if !near(q1, 1.5) || !near(q2, 4) || !near(q3, 12) {
		t.Errorf("quartiles(1,2,4,8,16) = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); !near(got, 1) {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestMidmean(t *testing.T) {
	// Two modes, 100 and 200, and the share of the first going from 48 %
	// to 52 %: the median jumps from one mode to the other, the midmean
	// moves by the share.
	modes := func(low int) []float64 {
		v := make([]float64, 100)
		for i := range v {
			v[i] = 200
			if i < low {
				v[i] = 100
			}
		}
		return v
	}
	if a, b := median(modes(48)), median(modes(52)); a != 200 || b != 100 {
		t.Fatalf("medians %v %v: the example no longer straddles the gap", a, b)
	}
	if a, b := midmean(modes(48)), midmean(modes(52)); !near(a, 154) || !near(b, 146) {
		t.Errorf("midmeans %v %v, want 154 146", a, b)
	}
	if got := midmean([]float64{9, 1, 5, 3, 7, 100, -100, 4}); !near(got, 4.75) {
		t.Errorf("midmean drops the outer quarters: got %v, want 4.75", got)
	}
}

func TestSliceEstimator(t *testing.T) {
	rates := []float64{100, 101, 99, 100, 40, 100, 102, 98, 55, 100, 60, 70}
	// The four slowest slices (40 55 60 70) are interference and dropped.
	if got, want := sliceEstimate(rates, true), 100.0; !near(got, want) {
		t.Errorf("rate estimate = %v, want %v", got, want)
	}
	lat := []float64{1, 1, 1, 1, 9, 1, 1, 1, 8, 1, 7, 6}
	if got := sliceEstimate(lat, false); !near(got, 1) {
		t.Errorf("latency estimate = %v, want 1", got)
	}
	b := sliceBounds(100, nSlices)
	if b[0] != 0 || b[nSlices] != 100 {
		t.Errorf("slice bounds %v do not cover the phase", b)
	}
	for i := 0; i < nSlices; i++ {
		if n := b[i+1] - b[i]; n < 8 || n > 9 {
			t.Errorf("slice %d holds %d of 100 operations", i, n)
		}
	}
}

func TestDisturbedAndRepeatDecision(t *testing.T) {
	calm := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100, 100, 100}
	rough := []float64{100, 80, 120, 100, 70, 130, 100, 90, 110, 100, 60, 140}
	if disturbed(calm) {
		t.Errorf("spread %.3f flagged as disturbed", spread(calm))
	}
	if !disturbed(rough) {
		t.Errorf("spread %.3f not flagged as disturbed", spread(rough))
	}
	if calmer(rough, calm) != 1 || calmer(calm, rough) != 0 || calmer(calm, calm) != 0 {
		t.Error("the calmer attempt is reported; a tie keeps the first")
	}
}

func TestSliceRates(t *testing.T) {
	// 120 completions 10 ms apart, then a stalled last slice.
	var samples []sample
	for i := 0; i < 120; i++ {
		done := time.Duration(i+1) * 10 * time.Millisecond
		if i >= 110 {
			done += time.Duration(i-109) * 10 * time.Millisecond
		}
		samples = append(samples, sample{done: done})
	}
	rates := sliceRates(samples)
	for i, r := range rates[:11] {
		if !near(r, 100) {
			t.Errorf("slice %d rate = %v, want 100", i, r)
		}
	}
	if !near(rates[11], 50) {
		t.Errorf("stalled slice rate = %v, want 50", rates[11])
	}
}

func TestOpenLoopSchedule(t *testing.T) {
	due := dueTimes(4, 100)
	for i, want := range []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond} {
		if due[i] != want {
			t.Errorf("request %d due at %v, want %v", i, due[i], want)
		}
	}
	sm := sample{due: 10 * time.Millisecond, done: 75 * time.Millisecond}
	if sm.latency() != 65*time.Millisecond {
		t.Errorf("latency counts from the due time: got %v", sm.latency())
	}
}

// A stalled answer delays the requests queued behind it, and the open
// loop charges them that wait.
func TestOpenLoopChargesTheStall(t *testing.T) {
	const stall = 100 * time.Millisecond
	var n atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 2 {
			time.Sleep(stall)
		}
		w.Write([]byte(`{"results":[{"url":"dweb://x"}],"cost":{"latency_us":7,"msgs":3}}`))
	}))
	defer ts.Close()
	srv := &server{base: ts.URL, client: ts.Client()}
	pool := []query{{Text: "a"}}
	samples, _, lateN := srv.openLoop(pool, []int{0, 0, 0, 0, 0, 0}, 100, time.Now())
	for i, sm := range samples {
		if sm.err != nil {
			t.Fatalf("request %d: %v", i, sm.err)
		}
		if sm.simUS != 7 || sm.msgs != 3 {
			t.Fatalf("request %d parsed as %+v", i, sm)
		}
	}
	if samples[0].latency() > stall/2 {
		t.Errorf("request before the stall took %v", samples[0].latency())
	}
	// Request 1 stalls for 100 ms; request 2 was due 10 ms after it and
	// waits out the rest.
	if got := samples[2].latency(); got < stall-20*time.Millisecond {
		t.Errorf("request behind the stall charged %v, want about %v", got, stall-10*time.Millisecond)
	}
	// Waiting behind the stall is the server's doing, not the generator's.
	if lateN > 1 {
		t.Errorf("%d of 6 requests booked as sent late by the generator", lateN)
	}
	if samples[2].due != 20*time.Millisecond {
		t.Errorf("due time moved to %v", samples[2].due)
	}
}

func TestSearchValidation(t *testing.T) {
	bodies := map[string]string{
		"/ok":       `{"results":[{"url":"u"}],"cost":{}}`,
		"/empty":    `{"results":[],"cost":{}}`,
		"/degraded": `{"results":[{"url":"u"}],"degraded":{"failed_shards":[1]}}`,
		"/garbage":  `{"results":`,
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query().Get("q")
		if q == "/refused" {
			http.Error(w, `{"error":"no"}`, http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(bodies[q]))
	}))
	defer ts.Close()
	srv := &server{base: ts.URL, client: ts.Client()}
	for q, wantOK := range map[string]bool{"/ok": true, "/empty": false, "/degraded": false, "/garbage": false, "/refused": false} {
		if _, err := srv.search(q, 10); (err == nil) != wantOK {
			t.Errorf("search %s: err = %v, want ok = %v", q, err, wantOK)
		}
	}
}

func TestPublishValidation(t *testing.T) {
	reply := ""
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(reply))
	}))
	defer ts.Close()
	srv := &server{base: ts.URL, client: ts.Client()}
	batch := []page{{URL: "dweb://bench/a", Text: "x"}, {URL: "dweb://bench/b", Text: "y"}}
	reply = `{"pages":2,"round":{"store_cost":{"latency_us":1000},"wave_cost":{"latency_us":2500},"partial":false}}`
	if p := srv.publish(batch, time.Now()); p.err != nil || p.pages != 2 || p.simUS != 3500 {
		t.Errorf("good receipt read as %+v", p)
	}
	for _, bad := range []string{
		`{"pages":1,"round":{}}`,
		`{"pages":2,"round":{"partial":true}}`,
		`{"pages":2,"round":{"errors":["bee 3: put failed"]}}`,
	} {
		reply = bad
		if p := srv.publish(batch, time.Now()); p.err == nil {
			t.Errorf("receipt %s accepted", bad)
		}
	}
}

// streamOf builds a small operation stream: 300 Zipf-ordered requests
// over a 64-query pool of a 100-page corpus, and 2 batches of 4 pages.
func streamOf(seed uint64) string {
	pool := queryPool(bootCorpus(serverSeed, 100), 64)
	order := requestOrder(seed, "measure:0", len(pool), 300, true)
	return streamDigest(pool, order, publishBatches(seed, 100, 2, 4))
}

func TestOperationStreamIsAFunctionOfTheSeed(t *testing.T) {
	a, b := streamOf(7), streamOf(7)
	if a != b {
		t.Fatalf("same seed, different streams: %s %s", a, b)
	}
	// Pinned: a change here changes what every recorded run measured.
	const pinned = "93865831649f5253a6481e16e1a7158c5cc812f4dc9fedb359d7a7c93a45a7fb"
	if a != pinned {
		t.Errorf("stream digest of seed 7 = %s, pinned %s", a, pinned)
	}
	if c := streamOf(8); c == a {
		t.Error("different seeds gave the same stream")
	}
}

func TestQueryPoolShapes(t *testing.T) {
	corp := bootCorpus(serverSeed, 200)
	pool := queryPool(corp, 400)
	if len(pool) != 400 {
		t.Fatalf("pool holds %d queries, want 400", len(pool))
	}
	seen := make(map[string]bool)
	kinds := make(map[queryKind]int)
	for _, q := range pool {
		if seen[q.Text] {
			t.Errorf("query %q drawn twice", q.Text)
		}
		seen[q.Text] = true
		kinds[q.Kind]++
	}
	for kind, share := range map[queryKind]float64{kindAnd: 0.50, kindTerm: 0.20, kindOr: 0.15, kindPhrase: 0.10, kindExclude: 0.05} {
		if got := float64(kinds[kind]) / 400; math.Abs(got-share) > 0.08 {
			t.Errorf("kind %d is %.2f of the pool, want about %.2f", kind, got, share)
		}
	}
	for _, batch := range publishBatches(3, 200, 2, 4) {
		for _, p := range batch {
			if !strings.HasPrefix(p.URL, "dweb://bench/") {
				t.Errorf("published page under %s", p.URL)
			}
			if q := findQuery(corp, p); len(strings.Fields(q)) != 3 {
				t.Errorf("find query %q is not three terms", q)
			}
		}
	}
}

// benchmarkFile is the shape of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestPrintedMetricsEqualBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if f.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds %d, operation counts are stated for %d", f.RunSeconds, nominalSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d is %+v in BENCHMARK.json, %s in the code", i, f.Workloads[i], w.Name)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) || len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the code %d+%d", len(f.EndToEnd), len(f.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range endToEnd {
		if got := f.EndToEnd[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end metric %d is %+v in BENCHMARK.json, %+v in the code", i, got, m)
		}
		// The issue's ceiling is 10 %; set-up time alone carries the
		// contract's widest bound.
		limit := 0.10
		if m.Name == "setup_s" {
			limit = 0.25
		}
		if m.Bound <= 0 || m.Bound > limit {
			t.Errorf("%s: bound %v outside (0, %v]", m.Name, m.Bound, limit)
		}
	}
	for i, m := range perLayer {
		if got := f.PerLayer[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer metric %d is %+v in BENCHMARK.json, %+v in the code", i, got, m)
		}
	}

	// A workload keeps exactly the wall-clock metrics its home phase
	// measures: the lists the issue gives, less the gated metrics, which
	// every workload reports.
	homes := map[string]string{
		"search_warm":    "search_qps search_ms_p50 search_slo_ratio",
		"publish_stream": "publish_pages_per_s publish_ms_p50",
		"serve_publish":  "search_ms_p50 search_slo_ratio publish_ms_p50",
		"crawl_cold":     "crawl_pages_per_s search_qps",
	}
	for _, w := range workloads {
		r := &runner{w: w, res: &result{metrics: make(map[string]float64)}}
		for _, m := range perLayer {
			r.set(m.Name, 1)
		}
		var kept []string
		for _, m := range wallClock {
			if _, ok := r.res.metrics[m.Name]; ok {
				kept = append(kept, m.Name)
			}
		}
		sort.Strings(kept)
		want := strings.Fields(homes[w.Name])
		sort.Strings(want)
		if strings.Join(kept, " ") != strings.Join(want, " ") {
			t.Errorf("%s keeps the wall-clock metrics %v, want %v", w.Name, kept, want)
		}
		if len(r.res.metrics) != len(layers)+len(kept) {
			t.Errorf("%s: %d metrics kept, want every layer metric and %d wall-clock ones", w.Name, len(r.res.metrics), len(kept))
		}
	}

	// The result line of every workload carries exactly the listed names.
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			res := &result{metrics: map[string]float64{"setup_s": 1.5, "facade.query_ms": 0.3}, attempted: 3}
			if err := printResult(&out, w, res, trace); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line resultJSON
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s: last line is not the result object: %v", w.Name, err)
			}
			want := reported(trace)
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, %d listed", w.Name, trace, len(line.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := line.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v", w.Name, trace, m.Name, got)
				}
			}
			if !line.Correct || line.Attempted != 3 || line.Failed != 0 {
				t.Errorf("%s: result line %+v", w.Name, line)
			}
		}
	}
}

// TestSmoke runs all four workloads, traced, at 1/20 size against real
// queenbeed subprocesses.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots queenbeed")
	}
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), runLimit)
			defer cancel()
			res, err := runOne(ctx, w.scaled(nominalSeconds, 0.05), 11, true, testWriter{t})
			if err != nil {
				t.Fatal(err)
			}
			if res.failed > 0 {
				t.Fatalf("%d of %d operations failed; first: %v", res.failed, res.attempted, res.firstErr)
			}
			for _, m := range endToEnd {
				if v := res.metrics[m.Name]; !(v > 0) {
					t.Errorf("%s = %v, an end-to-end metric must never read 0", m.Name, v)
				}
			}
			for _, m := range wallClock {
				v, ok := res.metrics[m.Name]
				if emits := slices.Contains(w.emits, m.Name); ok != emits || (emits && !(v > 0)) {
					t.Errorf("%s = %v (measured: %v), emitted here: %v", m.Name, v, ok, emits)
				}
			}
			for _, m := range layers {
				if _, ok := res.metrics[m.Name]; !ok {
					t.Logf("layer metric %s not measured on %s (reads 0)", m.Name, w.Name)
				}
			}
		})
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimRight(string(p), "\n"))
	return len(p), nil
}
