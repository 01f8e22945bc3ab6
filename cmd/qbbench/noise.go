package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"
)

// noiseStudy runs every workload n times, each run with another seed,
// and prints per metric the untraced run measures each run's value, the
// median, the quartiles, the inter-quartile spread and the largest
// pairwise difference, the last two as shares of the median. The spread
// is what the driver holds against an end-to-end metric's bound.
func noiseStudy(n int, seed uint64, seconds int, out io.Writer) error {
	for _, w := range workloads {
		values := make(map[string][]float64)
		for i := 0; i < n; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), runLimit)
			res, err := runOne(ctx, w.scaled(seconds, 1), seed+uint64(i), false, io.Discard)
			cancel()
			if err != nil {
				return fmt.Errorf("%s run %d: %w", w.Name, i, err)
			}
			if res.failed > 0 {
				return fmt.Errorf("%s run %d: %d of %d operations failed; first: %v", w.Name, i, res.failed, res.attempted, res.firstErr)
			}
			for name, v := range res.metrics {
				values[name] = append(values[name], v)
			}
		}
		for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			if v, ok := values[m.Name]; ok {
				fmt.Fprintln(out, noiseLine(w.Name, m, v))
			}
		}
	}
	return nil
}

// noiseLine renders one workload/metric row of the study.
func noiseLine(workload string, m metricDef, v []float64) string {
	runs := make([]string, len(v))
	for i, x := range v {
		runs[i] = fmt.Sprintf("%.5g", x)
	}
	line := fmt.Sprintf("%s/%s [%s] %s", workload, m.Name, m.Unit, strings.Join(runs, " "))
	if len(v) < 2 {
		return line
	}
	q1, q2, q3 := quartiles(v)
	s := sorted(v)
	maxdiff := 0.0
	if q2 != 0 {
		maxdiff = (s[len(s)-1] - s[0]) / math.Abs(q2)
	}
	line = fmt.Sprintf("%s | median %.5g q1 %.5g q3 %.5g spread %.4f maxdiff %.4f",
		line, q2, q1, q3, spread(v), maxdiff)
	if m.Bound > 0 {
		line += fmt.Sprintf(" bound %.2f", m.Bound)
	}
	return line
}
