// Command qbbench is the repo's wall-clock benchmark. It builds
// cmd/queenbeed, launches it as a subprocess, drives it over loopback
// HTTP with generated, validated requests, and prints every metric by
// name with its unit. README.md in this directory defines the metrics,
// the workloads and how to read the trace.
//
// Usage:
//
//	go run ./cmd/qbbench -workload search_warm -seed 1
//	go run ./cmd/qbbench -workload crawl_cold -seed 1 -trace 1
//	go run ./cmd/qbbench -noise 5
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1. Any failed operation
// makes the exit code non-zero.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// runLimit is the whole-run deadline: past it the subprocess is killed,
// its stderr dumped and the run reported as failed, so a hang is never
// a stuck pipeline. The traced replay runs in this process, where a call
// that ignores its context cannot be cancelled: hangLimit later the
// watchdog in main reports the failure and exits. Both fit the 180 s a
// run may take.
const (
	runLimit  = 165 * time.Second
	hangLimit = runLimit + 8*time.Second
)

// runOne builds the server and runs one workload, traced or not.
func runOne(ctx context.Context, w workload, seed uint64, trace bool, log io.Writer) (*result, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	bin, err := buildServer(ctx, root)
	if err != nil {
		return nil, err
	}
	r := &runner{ctx: ctx, w: w, seed: seed, bin: bin, trace: trace, log: log,
		res: &result{metrics: make(map[string]float64)}}
	if err := r.run(); err != nil {
		return r.res, err
	}
	if trace {
		if err := r.traced(outDir(root)); err != nil {
			return r.res, err
		}
	}
	return r.res, nil
}

// reported returns the metric definitions a run prints as its result:
// end-to-end without trace, per-layer with it.
func reported(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// printResult writes every measured metric by name and unit, then the
// result line. Metrics a workload does not exercise read 0.
func printResult(out io.Writer, w workload, res *result, trace bool) error {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range defs {
			if v, ok := res.metrics[m.Name]; ok {
				fmt.Fprintf(out, "%s/%s %.6g %s\n", w.Name, m.Name, v, m.Unit)
			}
		}
	}
	line := resultJSON{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metricJSON),
	}
	for _, m := range reported(trace) {
		line.Metrics[m.Name] = metricJSON{res.metrics[m.Name], m.Unit}
	}
	enc, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", enc)
	return err
}

func main() {
	name := flag.String("workload", "", "workload to run: search_warm, publish_stream, serve_publish or crawl_cold")
	seed := flag.Uint64("seed", 1, "seed of the request order and the published pages")
	seconds := flag.Int("seconds", nominalSeconds, "scales every operation count; the counts in README.md are for 10")
	trace := flag.Int("trace", 0, "1 adds the in-process traced replay and reports the per-layer metrics")
	noise := flag.Int("noise", 0, "run every workload this many times with different seeds and print the spread of every metric")
	flag.Parse()

	if *noise > 0 {
		if err := noiseStudy(*noise, *seed, *seconds, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "qbbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "qbbench: unknown workload %q or bad -seconds; see -help\n", *name)
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	// By hangLimit the context has long killed and reaped any subprocess.
	watchdog := time.AfterFunc(hangLimit, func() {
		fmt.Fprintf(os.Stderr, "qbbench: %s still running after %v: hung, giving up\n", w.Name, hangLimit)
		os.Exit(1)
	})
	res, err := runOne(ctx, w.scaled(*seconds, 1), *seed, *trace == 1, os.Stderr)
	watchdog.Stop()
	cancel()
	if err != nil {
		// No result line: the driver must see a broken run as broken.
		fmt.Fprintln(os.Stderr, "qbbench:", err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, w, res, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "qbbench:", err)
		os.Exit(1)
	}
	if res.failed > 0 {
		fmt.Fprintf(os.Stderr, "qbbench: %d of %d operations failed; first: %v\n", res.failed, res.attempted, res.firstErr)
		os.Exit(1)
	}
}
