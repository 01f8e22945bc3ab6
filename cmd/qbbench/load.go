package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"
)

// searchJSON is the part of a /search response the benchmark reads.
type searchJSON struct {
	Results []struct {
		URL string `json:"url"`
	} `json:"results"`
	Cost struct {
		LatencyUS int64 `json:"latency_us"`
		Msgs      int   `json:"msgs"`
	} `json:"cost"`
	Degraded json.RawMessage `json:"degraded"`
}

// sample is one search as the client saw it.
type sample struct {
	due   time.Duration // when it was due (open loop) or sent (closed loop), from the phase start
	done  time.Duration // when its response had been read and validated
	simUS int64
	msgs  int
	err   error
}

func (s sample) latency() time.Duration { return s.done - s.due }

// search sends one query and validates the answer: 200, well-formed
// JSON, a non-empty result list (every generated query matches at least
// its source document) and no degraded flag.
func (s *server) search(q string, size int) (searchJSON, error) {
	var out searchJSON
	resp, err := s.client.Get(s.base + "/search?size=" + fmt.Sprint(size) + "&q=" + url.QueryEscape(q))
	if err != nil {
		return out, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return out, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("search %q: status %d: %s", q, resp.StatusCode, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return out, fmt.Errorf("search %q: %w", q, err)
	}
	if len(out.Results) == 0 {
		return out, fmt.Errorf("search %q: no results for an in-corpus query", q)
	}
	if len(out.Degraded) > 0 && string(out.Degraded) != "null" {
		return out, fmt.Errorf("search %q: degraded answer %s", q, out.Degraded)
	}
	return out, nil
}

func (s *server) sampleOf(pool []query, qi int, start time.Time, due time.Duration) sample {
	r, err := s.search(pool[qi].Text, 10)
	return sample{due: due, done: time.Since(start), simUS: r.Cost.LatencyUS, msgs: r.Cost.Msgs, err: err}
}

// urls joins the result URLs of an answer, one per line.
func (r searchJSON) urls() string {
	out := make([]string, len(r.Results))
	for i, res := range r.Results {
		out[i] = res.URL
	}
	return strings.Join(out, "\n")
}

// closedLoop runs one client per order: each sends its next request
// when the previous answer has been validated. Samples come back in
// completion order.
func (s *server) closedLoop(pool []query, orders [][]int) []sample {
	start := time.Now()
	per := make([][]sample, len(orders))
	var wg sync.WaitGroup
	for c, order := range orders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]sample, 0, len(order))
			for _, qi := range order {
				out = append(out, s.sampleOf(pool, qi, start, time.Since(start)))
			}
			per[c] = out
		}()
	}
	wg.Wait()
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].done < all[j].done })
	return all
}

// dueTimes is the open-loop schedule: request i is due i/qps after the
// phase starts.
func dueTimes(n, qps int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(i) * time.Second / time.Duration(qps)
	}
	return out
}

// openLoop sends order on one connection at a fixed rate. A request is
// sent at its due time or, when the previous answer is still
// outstanding, as soon as the connection is free; its latency always
// counts from the due time, so the wait a stall imposes on the requests
// queued behind it is measured. That latency also contains whatever the
// generator itself overslept a due time with the connection idle: late
// is the most it did, and lateN how many requests it sent more than
// lateLimit late.
func (s *server) openLoop(pool []query, order []int, qps int, start time.Time) (out []sample, late time.Duration, lateN int) {
	due := dueTimes(len(order), qps)
	out = make([]sample, 0, len(order))
	for i, qi := range order {
		free := time.Since(start)
		if wait := due[i] - free; wait > 0 {
			time.Sleep(wait)
			overslept := time.Since(start) - due[i]
			late = max(late, overslept)
			if overslept > lateLimit {
				lateN++
			}
		}
		out = append(out, s.sampleOf(pool, qi, start, due[i]))
	}
	return out, late, lateN
}

// publishJSON is the part of a /publish response the benchmark reads.
type publishJSON struct {
	Pages int `json:"pages"`
	Round struct {
		StoreCost struct {
			LatencyUS int64 `json:"latency_us"`
		} `json:"store_cost"`
		WaveCost struct {
			LatencyUS int64 `json:"latency_us"`
		} `json:"wave_cost"`
		SegmentWrites int      `json:"segment_writes"`
		PointerWrites int      `json:"pointer_writes"`
		Compactions   int      `json:"compactions"`
		Partial       bool     `json:"partial"`
		Errors        []string `json:"errors"`
	} `json:"round"`
}

// published is one POST /publish as the client saw it.
type published struct {
	start, end time.Duration // from the phase start
	pages      int
	simUS      int64
	err        error
}

// publish posts one batch and validates the receipt: 200, every page
// acknowledged, a complete round without write-path errors.
func (s *server) publish(batch []page, phaseStart time.Time) published {
	p := published{start: time.Since(phaseStart)}
	body, err := json.Marshal(map[string][]page{"pages": batch})
	if err != nil {
		p.err = err
		return p
	}
	resp, err := s.client.Post(s.base+"/publish", "application/json", bytes.NewReader(body))
	if err != nil {
		p.end, p.err = time.Since(phaseStart), err
		return p
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	p.end = time.Since(phaseStart)
	var out publishJSON
	switch {
	case err != nil:
		p.err = err
	case resp.StatusCode != http.StatusOK:
		p.err = fmt.Errorf("publish: status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	default:
		p.err = json.Unmarshal(data, &out)
	}
	if p.err != nil {
		return p
	}
	if out.Pages != len(batch) || out.Round.Partial || len(out.Round.Errors) > 0 {
		p.err = fmt.Errorf("publish: %d of %d pages, partial=%v, errors=%v", out.Pages, len(batch), out.Round.Partial, out.Round.Errors)
		return p
	}
	p.pages = out.Pages
	p.simUS = out.Round.StoreCost.LatencyUS + out.Round.WaveCost.LatencyUS
	return p
}

// statsJSON is the part of GET /stats the benchmark reads.
type statsJSON struct {
	Frontends []struct {
		Served int64 `json:"served"`
		Hedges int64 `json:"hedges"`
	} `json:"frontends"`
	Cache struct {
		SegHits     int64
		SegMisses   int64
		ChainBytes  int64
		ChainHits   int64
		ChainMisses int64
	} `json:"cache"`
	Repair struct {
		ProbedKeys  int `json:"probed_keys"`
		Republished int `json:"republished"`
		Reprovided  int `json:"reprovided"`
	} `json:"repair"`
	Ingest struct {
		Published   int   `json:"published"`
		QueueWaitUS int64 `json:"queue_wait_us"`
		StallWaitUS int64 `json:"stall_wait_us"`
	} `json:"ingest"`
	Write struct {
		Rounds         int     `json:"rounds"`
		CompactedBytes int64   `json:"compacted_bytes"`
		Amplification  float64 `json:"write_amplification"`
	} `json:"write"`
}

func (st statsJSON) served() (served, hedges int64) {
	for _, f := range st.Frontends {
		served += f.Served
		hedges += f.Hedges
	}
	return served, hedges
}

func (s *server) stats() (statsJSON, error) {
	var out statsJSON
	resp, err := s.client.Get(s.base + "/stats")
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("stats: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, fmt.Errorf("stats: %w", err)
	}
	return out, nil
}
