// Package experiments regenerates every table of the reproduction
// (E1–E14 and E16–E19; E15 is not registered). Each experiment is a pure
// function from a seed to metrics tables, printed by cmd/experiments.
//
// The paper is a vision paper without numeric tables; each experiment
// operationalizes one claim the paper commits to, quoted in its Claim
// field. The tables each one prints at seed 1 are recorded in
// testdata/<ID>.golden, which TestAllExperimentsProduceTables checks
// byte for byte (E9's host-timed columns masked).
package experiments

import (
	"fmt"
	"sort"

	"repro/internal/metrics"
)

// Experiment is one runnable table/figure generator.
type Experiment struct {
	ID    string
	Title string
	Claim string // the paper sentence this experiment tests
	Run   func(seed uint64) []*metrics.Table
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// All returns every experiment in ID order.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return idOrder(out[i].ID) < idOrder(out[j].ID) })
	return out
}

// idOrder sorts E2 before E10.
func idOrder(id string) int {
	var n int
	fmt.Sscanf(id, "E%d", &n)
	return n
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
