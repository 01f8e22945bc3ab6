package main

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/corpus"
	"repro/internal/xrand"
)

// parityQueries is how many pool queries the traced run answers both
// over HTTP and in process, to compare their result lists.
const parityQueries = 200

// result is everything one run of one workload measured.
type result struct {
	metrics   map[string]float64
	attempted int
	failed    int
	firstErr  error
	// parity holds the HTTP result lists of the first pool queries on
	// the freshly booted server (traced runs only).
	parity []string
}

// runner carries one run's inputs and accumulating result.
type runner struct {
	ctx   context.Context
	w     workload
	seed  uint64
	bin   string
	trace bool
	log   io.Writer
	res   *result

	corp    *corpus.Corpus
	pool    []query
	batches [][]page
}

// set records a metric. A wall-clock metric is kept only on a workload
// whose home phase measures it.
func (r *runner) set(name string, v float64) {
	isWallClock := slices.ContainsFunc(wallClock, func(m metricDef) bool { return m.Name == name })
	if isWallClock && !slices.Contains(r.w.emits, name) {
		return
	}
	r.res.metrics[name] = v
}

// count books n attempted operations, failed of which failed with err.
func (r *runner) count(n, failed int, err error) {
	r.res.attempted += n
	r.res.failed += failed
	if r.res.firstErr == nil && err != nil {
		r.res.firstErr = err
	}
}

func (r *runner) countSamples(samples []sample) {
	var first error
	failed := 0
	for _, sm := range samples {
		if sm.err != nil {
			failed++
			if first == nil {
				first = sm.err
			}
		}
	}
	r.count(len(samples), failed, first)
}

func (r *runner) logf(format string, a ...any) {
	fmt.Fprintf(r.log, "# "+format+"\n", a...)
}

// boot starts the server w.boots times and keeps the last one running.
func (r *runner) boot() (*server, error) {
	w := r.w
	args := []string{"-docs", strconv.Itoa(w.docs)}
	if w.crawl {
		args = append(args, "-crawl", "-maintenance=false")
	}
	var srv *server
	var bootS []float64
	for i := 0; i < w.boots; i++ {
		if srv != nil {
			srv.stop()
		}
		var err error
		srv, err = startServer(r.ctx, r.bin, max(w.clients, 2), args...)
		r.count(1, 0, nil)
		if err != nil {
			r.count(0, 1, err)
			return nil, err
		}
		bootS = append(bootS, srv.bootS)
	}
	r.set("setup_s", median(bootS))
	r.logf("%d boots of %d docs: %.3f s", len(bootS), w.docs, bootS)
	if w.crawl {
		st, err := srv.stats()
		if err == nil && st.Ingest.Published == 0 {
			err = fmt.Errorf("crawl boot of %d docs published nothing", w.docs)
		}
		if err != nil {
			srv.stop()
			return nil, err
		}
		r.set("crawl_pages_per_s", float64(st.Ingest.Published)/srv.bootS)
		r.set("ingest.queue_wait_us", float64(st.Ingest.QueueWaitUS))
		r.set("ingest.stall_wait_us", float64(st.Ingest.StallWaitUS))
	}
	return srv, nil
}

// run executes the workload against queenbeed subprocesses: boot, home
// phase, the readings that belong to it, then the probe.
func (r *runner) run() error {
	w := r.w
	r.corp = bootCorpus(serverSeed, w.docs)
	r.pool = queryPool(r.corp, w.pool)
	r.batches = publishBatches(r.seed, w.docs, w.batches, w.batchPages)

	steal0, total0 := hostSteal()
	srv, err := r.boot()
	if err != nil {
		return err
	}
	defer srv.stop()

	if r.trace {
		r.res.parity = make([]string, min(parityQueries, len(r.pool)))
		for i := range r.res.parity {
			resp, err := srv.search(r.pool[i].Text, 10)
			if err != nil {
				r.count(1, 1, err)
				continue
			}
			r.count(1, 0, nil)
			r.res.parity[i] = resp.urls()
		}
	}

	var probe func(srv *server, home bool) error
	switch w.home {
	case homeSearch:
		err, probe = r.searchPhase(srv, true), r.publishPhase
	case homePublish:
		err, probe = r.publishPhase(srv, true), r.searchPhase
	case homeServe:
		err = r.serveBesidePublishes(srv)
	}
	if err == nil {
		err = r.readHome(srv)
	}
	if err == nil && probe != nil {
		err = probe(srv, false)
	}
	if err == nil {
		err = r.ctx.Err()
	}
	if err != nil {
		return fmt.Errorf("%w; server stderr:\n%s", err, srv.stderr)
	}

	steal1, total1 := hostSteal()
	if total1 > total0 {
		r.set("host.steal_ratio", (steal1-steal0)/(total1-total0))
	}
	r.set("fail_ratio", float64(r.res.failed)/float64(max(r.res.attempted, 1)))
	return nil
}

// readHome takes the readings that belong to the home phase before a
// probe can move them: peak memory, write amplification, cache size and
// the repair counters.
func (r *runner) readHome(srv *server) error {
	st, err := srv.stats()
	if err != nil {
		return err
	}
	r.set("write_amp", st.Write.Amplification)
	r.set("core.cache.chain_mb", float64(st.Cache.ChainBytes)/(1<<20))
	r.set("core.maintenance.keys_probed", float64(st.Repair.ProbedKeys))
	r.set("core.maintenance.republished", float64(st.Repair.Republished))
	r.set("core.maintenance.reprovided", float64(st.Repair.Reprovided))
	peak, err := srv.procStatusMB("VmHWM")
	if err != nil {
		return err
	}
	rss, err := srv.procStatusMB("VmRSS")
	if err != nil {
		return err
	}
	r.set("mem_peak_mb", peak)
	r.set("proc.rss_end_mb", rss)
	return nil
}

// orders draws one request sequence per client for a phase.
func (r *runner) orders(phase string, n int) [][]int {
	out := make([][]int, r.w.clients)
	for c := range out {
		out[c] = requestOrder(r.seed, fmt.Sprintf("%s:%d", phase, c), len(r.pool), n, r.w.zipf)
	}
	return out
}

// sliceRates cuts samples (in completion order) into slices of equal
// count and returns each slice's completion rate.
func sliceRates(samples []sample) []float64 {
	b := sliceBounds(len(samples), nSlices)
	rates := make([]float64, nSlices)
	var prev time.Duration
	for i := range rates {
		end := samples[b[i+1]-1].done
		rates[i] = float64(b[i+1]-b[i]) / (end - prev).Seconds()
		prev = end
	}
	return rates
}

// sliceLatencyMedians cuts samples (in completion order) into slices of
// equal count and returns the median latency of each slice's valid
// samples, in ms.
func sliceLatencyMedians(samples []sample) []float64 {
	b := sliceBounds(len(samples), nSlices)
	out := make([]float64, nSlices)
	for i := range out {
		var v []float64
		for _, sm := range samples[b[i]:b[i+1]] {
			if sm.err == nil {
				v = append(v, latencyMS(sm))
			}
		}
		out[i] = median(v)
	}
	return out
}

func latencyMS(sm sample) float64 { return float64(sm.latency()) / float64(time.Millisecond) }

// searchMetrics derives the search metrics of a phase whose samples are
// in completion order. The simulated costs are the same function of the
// responses on every workload; the wall-clock metrics are kept where the
// workload emits them.
func (r *runner) searchMetrics(samples []sample) {
	var ok, inLimit int
	var lat, simMS, msgs []float64
	for _, sm := range samples {
		if sm.err != nil {
			continue
		}
		ok++
		if sm.latency() <= sloLimit {
			inLimit++
		}
		lat = append(lat, latencyMS(sm))
		simMS = append(simMS, float64(sm.simUS)/1000)
		msgs = append(msgs, float64(sm.msgs))
	}
	r.set("search_sim_ms_p50", midmean(simMS))
	r.set("search_sim_msgs", mean(msgs))
	if r.w.sliced {
		r.set("search_qps", sliceEstimate(sliceRates(samples), true))
		r.set("search_ms_p50", sliceEstimate(sliceLatencyMedians(samples), false))
	} else {
		r.set("search_qps", float64(ok)/samples[len(samples)-1].done.Seconds())
		r.set("search_ms_p50", median(lat))
	}
	r.set("search_slo_ratio", float64(inLimit)/float64(len(samples)))
}

// counters are read from outside the server, /stats and /proc, on both
// sides of a home phase.
type counters struct {
	st  statsJSON
	cpu float64
}

func readCounters(srv *server) (counters, error) {
	st, err := srv.stats()
	if err != nil {
		return counters{}, err
	}
	cpu, err := srv.cpuSeconds()
	return counters{st, cpu}, err
}

func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// measured runs a home phase between two readings of the counters and
// reports their deltas.
func (r *runner) measured(srv *server, phase func()) error {
	a, err := readCounters(srv)
	if err != nil {
		return err
	}
	phase()
	b, err := readCounters(srv)
	if err != nil {
		return err
	}
	served0, hedges0 := a.st.served()
	served1, hedges1 := b.st.served()
	if served1 > served0 {
		r.set("core.pool.hedges_per_query", float64(hedges1-hedges0)/float64(served1-served0))
	}
	r.set("core.cache.chain_hit_ratio", ratio(b.st.Cache.ChainHits-a.st.Cache.ChainHits, b.st.Cache.ChainMisses-a.st.Cache.ChainMisses))
	r.set("core.cache.seg_hit_ratio", ratio(b.st.Cache.SegHits-a.st.Cache.SegHits, b.st.Cache.SegMisses-a.st.Cache.SegMisses))
	r.set("proc.cpu_s", b.cpu-a.cpu)
	return nil
}

// searchPhase is the closed-loop search phase: a discarded warm-up, then
// the measured requests. At home, a sliced phase whose slice rates are
// too dispersed is repeated once and the calmer attempt reported. As a
// probe it runs once and only the simulated costs are kept.
func (r *runner) searchPhase(srv *server, home bool) error {
	w := r.w
	r.countSamples(srv.closedLoop(r.pool, r.orders("warm", w.warmup)))
	orders := r.orders("measure", w.requests)
	var samples []sample
	run := func() { samples = srv.closedLoop(r.pool, orders) }
	if !home {
		run()
		r.countSamples(samples)
		r.searchMetrics(samples)
		return nil
	}
	if err := r.measured(srv, run); err != nil {
		return err
	}
	r.countSamples(samples)
	disturbedAttempts := 0
	if rates := sliceRates(samples); w.sliced && disturbed(rates) {
		disturbedAttempts++
		r.logf("search phase disturbed (slice-rate spread %.3f): repeating once", spread(rates))
		again := srv.closedLoop(r.pool, orders)
		r.countSamples(again)
		ratesAgain := sliceRates(again)
		if disturbed(ratesAgain) {
			disturbedAttempts++
		}
		if calmer(rates, ratesAgain) == 1 {
			samples = again
		}
	}
	r.set("host.disturbed_attempts", float64(disturbedAttempts))
	r.searchMetrics(samples)
	r.searchTail(samples)
	r.logf("search: %d requests by %d clients in %.2f s", len(samples), w.clients, samples[len(samples)-1].done.Seconds())
	return nil
}

// searchTail reports the tail percentiles of a home search phase; they
// do not repeat from run to run and are diagnostics only.
func (r *runner) searchTail(samples []sample) {
	var lat []float64
	for _, sm := range samples {
		if sm.err == nil {
			lat = append(lat, latencyMS(sm))
		}
	}
	r.set("search_ms_p90", percentile(lat, 0.90))
	r.set("search_ms_p99", percentile(lat, 0.99))
}

// publishMetrics derives the publish metrics: the simulated cost on
// every workload, the wall-clock ones where the workload emits them,
// the slowest round of a home phase.
func (r *runner) publishMetrics(pubs []published, home bool) {
	var pages int
	var total time.Duration
	var latMS, simMS []float64
	failed := 0
	var first error
	for _, p := range pubs {
		if p.err != nil {
			failed++
			if first == nil {
				first = p.err
			}
			continue
		}
		pages += p.pages
		total += p.end - p.start
		latMS = append(latMS, float64(p.end-p.start)/float64(time.Millisecond))
		simMS = append(simMS, float64(p.simUS)/1000)
	}
	r.count(len(pubs), failed, first)
	r.set("publish_sim_ms_p50", median(simMS))
	if total > 0 {
		r.set("publish_pages_per_s", float64(pages)/total.Seconds())
	}
	r.set("publish_ms_p50", median(latMS))
	if home {
		r.set("publish_ms_max", percentile(latMS, 1))
	}
}

// publishPhase posts the batches back to back from one client and, when
// the workload asks for it, checks that sampled pages are findable.
func (r *runner) publishPhase(srv *server, home bool) error {
	start := time.Now()
	pubs := make([]published, 0, len(r.batches))
	run := func() {
		for _, b := range r.batches {
			pubs = append(pubs, srv.publish(b, start))
		}
	}
	if !home {
		run()
	} else if err := r.measured(srv, run); err != nil {
		return err
	}
	r.publishMetrics(pubs, home)
	r.logf("publish: %d batches of %d pages in %.2f s", len(pubs), r.w.batchPages, time.Since(start).Seconds())
	if r.w.verifyURLs > 0 {
		r.verifyFindable(srv)
	}
	return nil
}

// verifyFindable checks sampled published pages: a three-term AND of a
// page's own rarest words must return the page.
func (r *runner) verifyFindable(srv *server) {
	var all []page
	for _, b := range r.batches {
		all = append(all, b...)
	}
	rng := xrand.NewNamed(r.seed, "qbbench:verify")
	for _, i := range rng.Sample(len(all), r.w.verifyURLs) {
		p := all[i]
		q := findQuery(r.corp, p)
		resp, err := srv.search(q, 100)
		if err == nil {
			found := false
			for _, res := range resp.Results {
				found = found || res.URL == p.URL
			}
			if !found {
				err = fmt.Errorf("published page %s not among the %d results of %q", p.URL, len(resp.Results), q)
			}
		}
		failed := 0
		if err != nil {
			failed = 1
		}
		r.count(1, failed, err)
	}
}

// lateLimit is how far the load generator may oversleep a due time
// before the request counts as sent late: latency is timed from the due
// time, so the generator's own lateness reads as server latency. A
// single preemption of 10-60 ms happens in most runs on two CPUs and
// touches one request in two thousand; the open loop counts as
// disturbed when more than one request in a hundred was sent late.
const lateLimit = sloLimit / 4

// serveBesidePublishes is the open-loop phase: one connection sends the
// query stream at a fixed rate while a second posts the batches evenly
// spaced over the phase, the first after half a spacing.
func (r *runner) serveBesidePublishes(srv *server) error {
	w := r.w
	r.countSamples(srv.closedLoop(r.pool, r.orders("warm", w.warmup)))
	order := r.orders("measure", w.requests)[0]
	every := time.Duration(w.requests) * time.Second / time.Duration(openLoopQPS*len(r.batches))
	pubs := make([]published, len(r.batches))
	var samples []sample
	var late time.Duration
	var lateN int
	var start time.Time
	err := r.measured(srv, func() {
		start = time.Now()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, b := range r.batches {
				due := every/2 + time.Duration(i)*every
				if wait := due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				pubs[i] = srv.publish(b, start)
			}
		}()
		samples, late, lateN = srv.openLoop(r.pool, order, openLoopQPS, start)
		wg.Wait()
	})
	if err != nil {
		return err
	}
	r.countSamples(samples)
	r.searchMetrics(samples)
	r.searchTail(samples)
	r.publishMetrics(pubs, true)
	r.set("loadgen.late_ms_max", float64(late)/float64(time.Millisecond))
	disturbedAttempts := 0
	if lateN*100 > len(samples) {
		disturbedAttempts = 1
		r.logf("open loop disturbed: the generator sent %d of %d requests more than %v late", lateN, len(samples), lateLimit)
	}
	r.set("host.disturbed_attempts", float64(disturbedAttempts))

	// Attribute the searches over the limit: due while a publish held the
	// write lock (the stall) or not (the cold reload after it).
	var over, inside int
	for _, sm := range samples {
		if sm.err == nil && sm.latency() <= sloLimit {
			continue
		}
		over++
		for _, p := range pubs {
			if sm.due >= p.start && sm.due <= p.end {
				inside++
				break
			}
		}
	}
	if over > 0 {
		r.set("queenbeed.stall_share", float64(inside)/float64(over))
		r.set("core.cold_share", float64(over-inside)/float64(over))
	}
	r.logf("open loop: %d searches at %d q/s beside %d publishes in %.2f s", len(samples), openLoopQPS, len(pubs), time.Since(start).Seconds())
	return nil
}
