package main

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/corpus"
)

var update = flag.Bool("update", false, "rewrite testdata/transcript.golden from the current code")

// clip shortens a request line or body for the transcript: the oversized
// inputs the limit checks refuse are recorded by their length.
func clip(s string) string {
	if len(s) <= 120 {
		return s
	}
	return fmt.Sprintf("%s…[%d bytes]", s[:60], len(s))
}

// uptime is /healthz's one wall-clock field.
var uptime = regexp.MustCompile(`"uptime":"[^"]*"`)

// TestDaemonTranscript pins every byte the daemon sends. It boots its own
// engine (the shared serverHandler sees other tests' publishes) with one
// ad campaign, sends a fixed sequence of requests one after another —
// every search mode, pagination, snippets, site: and '-' exclusions, a
// 400 for each limit, /explain, /healthz, /readyz, /stats, a publish and
// a republish, a 504 from deadline_ms=1, then, with most of the swarm
// down, a 503 /readyz and degraded answers — and compares each request
// line, status, Content-Type and body with testdata/transcript.golden
// (/healthz's wall-clock uptime masked). Sequential requests are a pure
// function of the seed, latencies and cache counters included.
// Regenerate with `go test ./cmd/queenbeed -run TestDaemonTranscript
// -update`, only when a change is meant to move what the daemon answers.
func TestDaemonTranscript(t *testing.T) {
	engine, publisher := buildEngine(1, 10, 3, 12, 2, true, true, false)
	h := newHandler(engine, publisher)
	ccfg := corpus.DefaultConfig()
	ccfg.Seed = 1
	ccfg.NumDocs = 12
	corp := corpus.Generate(ccfg)
	v0, v1, v2 := corp.Vocab(0), corp.Vocab(1), corp.Vocab(2)
	advertiser := engine.NewAccount("advertiser", 10_000)
	if _, err := engine.RegisterAd(advertiser, []string{v0, "glowworm"}, 7, 500); err != nil {
		t.Fatal(err)
	}
	q := func(s string) string { return url.QueryEscape(s) }
	var all []string
	for i := 0; i < 24; i++ {
		all = append(all, corp.Vocab(i))
	}

	var bigBatch []string
	for i := 0; i <= 64; i++ {
		bigBatch = append(bigBatch, fmt.Sprintf(`{"url":"dweb://big/%d","text":"w"}`, i))
	}
	type request struct{ method, target, body string }
	reqs := []request{
		{"GET", "/healthz", ""},
		{"GET", "/readyz", ""},
		{"GET", "/search?q=" + q(strings.Join(all, " ")) + "&mode=any&deadline_ms=1", ""},
		{"GET", "/search?q=" + q(v0) + "&size=5", ""},
		{"GET", "/search?q=" + q(v0+" "+v1) + "&mode=parsed", ""},
		{"GET", "/search?q=" + q(v0+" "+v1) + "&mode=all", ""},
		{"GET", "/search?q=" + q(v0+" "+v1) + "&mode=any&size=4", ""},
		{"GET", "/search?q=" + q(v0+" "+v1) + "&mode=phrase", ""},
		{"GET", "/search?q=" + q(v0+" OR "+v2), ""},
		{"GET", "/search?q=" + q(v0) + "&page=2&size=2", ""},
		{"GET", "/search?q=" + q(v0) + "&size=2&snippets=1", ""},
		{"GET", "/search?q=" + q(v0+" site:"+corpus.URLOf(1)), ""},
		{"GET", "/search?q=" + q(v0+" -"+v1), ""},
		{"GET", "/search?q=" + q("zzzunknownterm"), ""},
		{"GET", "/explain?q=" + q("("+v0+" OR "+v1+") -"+v2), ""},
		// One 400 per limit, then the other refused inputs.
		{"GET", "/search?q=" + strings.Repeat("x", 1025), ""},
		{"GET", "/search?q=" + q(v0) + "&size=101", ""},
		{"POST", "/publish", `{"pages":[` + strings.Join(bigBatch, ",") + `]}`},
		{"POST", "/publish", `{"pages":[{"url":"dweb://huge","text":"` + strings.Repeat("y", 1<<20) + `"}]}`},
		{"GET", "/search", ""},
		{"GET", "/search?q=" + q(v0) + "&size=0", ""},
		{"GET", "/search?q=" + q(v0) + "&page=zero", ""},
		{"GET", "/search?q=" + q(v0) + "&deadline_ms=0", ""},
		{"GET", "/search?q=" + q(v0) + "&mode=fuzzy", ""},
		{"GET", "/search?q=-only", ""},
		{"GET", "/search?q=the+of", ""},
		{"POST", "/publish", `not json`},
		{"POST", "/publish", `{"pages":[]}`},
		{"POST", "/publish", `{"pages":[{"url":"","text":"x"}]}`},
		{"POST", "/publish", `{"pages":[{"url":"dweb://dup","text":"a"},{"url":"dweb://dup","text":"b"}]}`},
		// A publish, the pages found, a republish, the old text gone.
		{"POST", "/publish", `{"pages":[{"url":"dweb://api/one","text":"glowworm beacon essay about luminous navigation"},{"url":"dweb://api/two","text":"glowworm colonies and their luminous caves","links":["dweb://api/one"]}]}`},
		{"GET", "/search?q=glowworm+luminous&snippets=1", ""},
		{"POST", "/publish", `{"pages":[{"url":"dweb://api/one","text":"firefly lantern essay about luminous navigation"}]}`},
		{"GET", "/search?q=glowworm", ""},
		{"GET", "/search?q=firefly+OR+glowworm", ""},
		{"GET", "/search?q=" + q(v0) + "&size=5", ""},
		{"GET", "/readyz", ""},
		{"GET", "/healthz", ""},
		{"GET", "/stats", ""},
	}

	var out bytes.Buffer
	send := func(reqs []request) {
		for _, r := range reqs {
			fmt.Fprintf(&out, ">>> %s %s\n", r.method, clip(r.target))
			if r.body != "" {
				fmt.Fprintf(&out, ">>> %s\n", clip(r.body))
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(r.method, r.target, strings.NewReader(r.body)))
			fmt.Fprintf(&out, "<<< %d %s %s\n", rec.Code, http.StatusText(rec.Code), rec.Header().Get("Content-Type"))
			out.Write(uptime.ReplaceAll(rec.Body.Bytes(), []byte(`"uptime":"<masked>"`)))
		}
	}
	send(reqs)

	// Most of the swarm goes down: readiness fails and an answer over
	// the shards still loadable comes back flagged degraded.
	fmt.Fprintf(&out, "=== peers 1.. and every bee down\n")
	for _, p := range engine.Cluster.Peers[1:] {
		engine.Cluster.Net.SetDown(p.Addr(), true)
	}
	for _, b := range engine.Cluster.Bees {
		engine.Cluster.Net.SetDown(b.Peer.Addr(), true)
	}
	send([]request{
		{"GET", "/readyz", ""},
		{"GET", "/search?q=" + q(strings.Join(all, " ")) + "&mode=any&size=3", ""},
		{"GET", "/search?q=" + q(strings.Join(all[12:], " ")) + "&mode=any&size=3", ""},
		{"GET", "/stats", ""},
	})

	path := filepath.Join("testdata", "transcript.golden")
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Bytes(); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("transcript differs from %s at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("transcript differs from %s in length: %d lines, want %d", path, len(gl), len(wl))
	}
}
