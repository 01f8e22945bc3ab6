package netsim

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"repro/internal/xrand"
)

// Retryable classifies a CallCtx error as transient or fatal. Transient
// failures — a dropped message, a request shed by an overloaded node —
// are worth retrying: the same call can succeed a moment later on the
// same link. (The simulator has no spurious-timeout mode; a dropped
// message is its timeout analog.) Everything else is structural: the
// target is down or unknown, the network is partitioned, the caller
// itself is down, or the request lifecycle ended — retrying cannot help
// until the world changes.
func Retryable(err error) bool {
	return errors.Is(err, ErrDropped) || errors.Is(err, ErrOverloaded)
}

// FaultKind is one category of scripted fault event.
type FaultKind int

// Fault event kinds.
const (
	// FaultCrash marks nodes down (SetDown true): explicit Nodes, or a
	// Fraction of the plan's Scope sampled deterministically.
	FaultCrash FaultKind = iota
	// FaultRecover brings nodes back (SetDown false): explicit Nodes, or
	// every node this plan crashed when Nodes is empty.
	FaultRecover
	// FaultPartition splits the network into the event's Groups.
	FaultPartition
	// FaultHeal dissolves all partitions (SetPartition nil).
	FaultHeal
	// FaultDropRate sets the global message drop probability to Rate —
	// Rate 0 ends a lossy-link episode.
	FaultDropRate
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultRecover:
		return "recover"
	case FaultPartition:
		return "partition"
	case FaultHeal:
		return "heal"
	case FaultDropRate:
		return "drop-rate"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// FaultEvent is one scripted churn event, applied when the plan's
// elapsed simulated time reaches At.
type FaultEvent struct {
	At   time.Duration
	Kind FaultKind
	// Nodes are explicit victims for crash/recover events.
	Nodes []NodeID
	// Fraction crashes that share of the plan Scope's currently-live
	// members instead, sampled deterministically from the plan seed.
	// Only read when Kind is FaultCrash and Nodes is empty.
	Fraction float64
	// Groups is the partition assignment for FaultPartition.
	Groups map[NodeID]int
	// Rate is the drop probability for FaultDropRate.
	Rate float64
}

// FiredEvent records one applied event and the nodes it affected.
type FiredEvent struct {
	At      time.Duration
	Kind    FaultKind
	Victims []NodeID
}

// FaultPlan is a replayable churn schedule: a list of events on a
// simulated-time axis, applied against a Network as time advances. The
// driver (e.g. the cluster's block seal) calls Advance with its elapsed
// time; events whose At has passed fire once, in slice order. Victim
// sampling for fractional crashes draws from an RNG derived from the
// plan seed and the event index — never from the network's link
// streams — so "50% of peers leave mid-round" is the same 50% every
// run, and the schedule perturbs no per-link jitter/drop draws.
//
// Advance is safe for concurrent use, but a deterministic schedule
// needs a single-threaded driver (the same contract as the cluster's
// write side).
type FaultPlan struct {
	// Seed derives the victim-sampling streams.
	Seed uint64
	// Scope is the victim pool for Fraction events (typically the plain
	// peers, never the bees). Sampling order follows this slice.
	Scope []NodeID
	// Events fire in slice order as their At times pass.
	Events []FaultEvent

	mu      sync.Mutex
	next    int
	crashed map[NodeID]bool
}

// Advance applies every not-yet-fired event with At <= elapsed, in
// order, and returns the events fired by this call.
func (p *FaultPlan) Advance(elapsed time.Duration, net *Network) []FiredEvent {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.crashed == nil {
		p.crashed = make(map[NodeID]bool)
	}
	var out []FiredEvent
	for p.next < len(p.Events) && p.Events[p.next].At <= elapsed {
		ev := p.Events[p.next]
		fe := FiredEvent{At: ev.At, Kind: ev.Kind}
		switch ev.Kind {
		case FaultCrash:
			fe.Victims = p.crashVictims(p.next, ev)
			for _, id := range fe.Victims {
				net.SetDown(id, true)
				p.crashed[id] = true
			}
		case FaultRecover:
			fe.Victims = ev.Nodes
			if len(fe.Victims) == 0 {
				fe.Victims = slices.Sorted(maps.Keys(p.crashed))
			}
			for _, id := range fe.Victims {
				net.SetDown(id, false)
				delete(p.crashed, id)
			}
		case FaultPartition:
			net.SetPartition(ev.Groups)
		case FaultHeal:
			net.SetPartition(nil)
		case FaultDropRate:
			net.SetDropRate(ev.Rate)
		}
		out = append(out, fe)
		p.next++
	}
	return out
}

// crashVictims resolves a crash event's victim set: explicit nodes, or
// a deterministic sample of the scope's still-live members. Called with
// p.mu held.
func (p *FaultPlan) crashVictims(eventIdx int, ev FaultEvent) []NodeID {
	if len(ev.Nodes) > 0 {
		return ev.Nodes
	}
	live := make([]NodeID, 0, len(p.Scope))
	for _, id := range p.Scope {
		if !p.crashed[id] {
			live = append(live, id)
		}
	}
	n := int(ev.Fraction * float64(len(live)))
	if n <= 0 {
		return nil
	}
	rng := xrand.NewNamed(p.Seed, fmt.Sprintf("fault-event:%d", eventIdx))
	victims := make([]NodeID, 0, n)
	for _, i := range rng.Sample(len(live), n) {
		victims = append(victims, live[i])
	}
	slices.Sort(victims)
	return victims
}

// CrashedNodes returns the nodes this plan has crashed and not yet
// recovered, sorted by ID.
func (p *FaultPlan) CrashedNodes() []NodeID {
	p.mu.Lock()
	defer p.mu.Unlock()
	return slices.Sorted(maps.Keys(p.crashed))
}

// Done reports whether every event has fired.
func (p *FaultPlan) Done() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.next >= len(p.Events)
}
