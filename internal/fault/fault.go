package fault

import (
	"fmt"
	"math/rand"
	"time"
)

// Kind names one fault mechanism.
type Kind int

const (
	// Delay holds each matching message for a deterministic pseudo-random
	// latency up to Rule.Delay before delivering it. Per-edge FIFO order is
	// preserved (the edge behaves like a slow wire), so delay-only
	// schedules never change results — only timing.
	Delay Kind = iota
	// Drop swallows Rule.Count messages starting at per-edge message index
	// Rule.Msg. The receiver's quota accounting then starves: the sweep
	// can only end via the deadline watchdog (and recover via retry).
	Drop
	// Reorder swaps matching messages with their successor on the edge (a
	// best-effort adjacent swap inside one sweep's quota window, with a
	// timed in-place fallback so delivery never waits indefinitely on
	// another message — unbounded holds would deadlock the cross-rank
	// wavefront). Every message addresses its own (ordinate, face) slot,
	// so reordering within one sweep's quota is correctness-neutral by
	// design; the rule exercises exactly that guarantee.
	Reorder
	// Stall blocks every delivery on the edge from sweep index Rule.Sweep
	// on, forever (a hung peer). Downstream ranks starve mid-sweep until
	// the watchdog trips.
	Stall
	// Crash drops every message on the edge from sweep index Rule.Sweep on
	// (a dead peer: nothing arrives, nothing blocks the sender).
	Crash
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Delay:
		return "delay"
	case Drop:
		return "drop"
	case Reorder:
		return "reorder"
	case Stall:
		return "stall"
	case Crash:
		return "crash"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Rule applies one fault kind to the directed rank edges it matches.
type Rule struct {
	// From and To select the directed rank pair; -1 matches any rank.
	From, To int
	Kind     Kind

	// Delay is the maximum per-message latency of a Delay rule; each
	// message sleeps a deterministic pseudo-random duration in [0, Delay].
	Delay time.Duration

	// Sweep is the first affected per-edge sweep index (0-based) of a
	// Stall or Crash rule. Sweep indices count an edge's quota windows
	// from the start of the run (inner iterations, across outers).
	Sweep int

	// Msg and Count bound a Drop rule: Count messages (default 1) are
	// dropped starting at per-edge message index Msg.
	Msg, Count int

	// Attempts limits the rule to the first N run attempts (a retried run
	// escapes the fault from attempt N on); 0 applies it to every attempt.
	Attempts int
}

// Schedule is a seeded set of fault rules.
type Schedule struct {
	// Seed keys every pseudo-random decision. Two runs with the same
	// schedule, edges and attempt count make identical choices.
	Seed  int64
	Rules []Rule
}

// Validate rejects malformed schedules with a structured error.
func (s *Schedule) Validate() error {
	for i, r := range s.Rules {
		if r.From < -1 || r.To < -1 {
			return fmt.Errorf("fault: rule %d: rank pair %d->%d invalid (-1 is the wildcard)", i, r.From, r.To)
		}
		if r.Kind < Delay || r.Kind > Crash {
			return fmt.Errorf("fault: rule %d: unknown kind %d", i, int(r.Kind))
		}
		if r.Delay < 0 {
			return fmt.Errorf("fault: rule %d: negative delay %v", i, r.Delay)
		}
		if r.Kind == Delay && r.Delay == 0 {
			return fmt.Errorf("fault: rule %d: delay rule needs a positive Delay", i)
		}
		if r.Sweep < 0 || r.Msg < 0 || r.Count < 0 || r.Attempts < 0 {
			return fmt.Errorf("fault: rule %d: negative Sweep/Msg/Count/Attempts", i)
		}
	}
	return nil
}

// Edge declares one logical transport stream the injector can act on: the
// directed rank pair it connects and its per-sweep message quota (the
// width of a Reorder window and the unit Stall/Crash sweep indices count).
type Edge struct {
	From, To int
	Quota    int
}

// Action tells the transport what to do with one message. Zero means
// deliver normally.
type Action struct {
	Delay time.Duration // sleep this long before delivering
	Drop  bool          // swallow the message
	Hold  bool          // deliver at the end of the current quota window
	Stall bool          // never deliver; block until the run aborts
}

// edgeState is one logical edge's compiled rules and decision stream.
type edgeState struct {
	edge  Edge
	rules []int // indices into Injector.rules matching this edge
	rng   *rand.Rand
}

// Injector makes per-message fault decisions for a fixed edge set.
// Decide must be serialised per edge (the transport's per-edge send lock
// does this); different edges may decide concurrently. BeginAttempt must
// not overlap any Decide.
type Injector struct {
	seed    int64
	rules   []Rule
	edges   []edgeState
	attempt int
}

// New compiles a schedule against the run's logical edges. A nil schedule
// yields a nil injector (callers skip the transport wrapper entirely); a
// schedule with no rules yields an inert injector whose Decide always
// returns the zero Action — the "disabled injector" the overhead
// benchmark measures.
func New(s *Schedule, edges []Edge) *Injector {
	if s == nil {
		return nil
	}
	in := &Injector{seed: s.Seed, rules: s.Rules, edges: make([]edgeState, len(edges))}
	for i, e := range edges {
		if e.Quota < 1 {
			e.Quota = 1
		}
		st := edgeState{edge: e}
		for ri, r := range s.Rules {
			if (r.From == -1 || r.From == e.From) && (r.To == -1 || r.To == e.To) {
				st.rules = append(st.rules, ri)
			}
		}
		in.edges[i] = st
	}
	in.reseed()
	return in
}

// Active reports whether any rule can ever fire.
func (in *Injector) Active() bool { return in != nil && len(in.rules) > 0 }

// BeginAttempt starts the next run attempt: the per-edge decision streams
// are reseeded from (seed, edge, attempt), so each attempt's fault
// pattern is reproducible on its own. The first attempt is armed by New;
// call BeginAttempt once per subsequent retry, never concurrently with
// Decide.
func (in *Injector) BeginAttempt() {
	in.attempt++
	in.reseed()
}

// ResetAttempts rewinds the attempt counter to 0 and reseeds, so a fresh
// Run on the same driver replays the identical fault pattern a first Run
// saw. Never call concurrently with Decide.
func (in *Injector) ResetAttempts() {
	in.attempt = 0
	in.reseed()
}

func (in *Injector) reseed() {
	for i := range in.edges {
		st := &in.edges[i]
		if len(st.rules) == 0 {
			continue
		}
		// splitmix-style stream key: cheap, and distinct per (edge, attempt).
		k := int64(uint64(in.seed) ^ (uint64(i)+1)*0x9e3779b97f4a7c15 ^ (uint64(in.attempt)+1)*0xbf58476d1ce4e5b9)
		st.rng = rand.New(rand.NewSource(k))
	}
}

// Decide returns the action for per-edge message index msgIdx on edge ei.
// Indices must arrive consecutively from 0 per edge per attempt.
func (in *Injector) Decide(ei, msgIdx int) Action {
	st := &in.edges[ei]
	var act Action
	for _, ri := range st.rules {
		r := &in.rules[ri]
		if r.Attempts > 0 && in.attempt >= r.Attempts {
			continue
		}
		switch r.Kind {
		case Delay:
			if d := time.Duration(st.rng.Int63n(int64(r.Delay) + 1)); d > act.Delay {
				act.Delay = d
			}
		case Drop:
			n := r.Count
			if n <= 0 {
				n = 1
			}
			if msgIdx >= r.Msg && msgIdx < r.Msg+n {
				act.Drop = true
			}
		case Reorder:
			if st.rng.Intn(2) == 1 {
				act.Hold = true
			}
		case Stall:
			if msgIdx/st.edge.Quota >= r.Sweep {
				act.Stall = true
			}
		case Crash:
			if msgIdx/st.edge.Quota >= r.Sweep {
				act.Drop = true
			}
		}
	}
	return act
}

// Quota returns edge ei's per-sweep message quota (at least 1).
func (in *Injector) Quota(ei int) int { return in.edges[ei].edge.Quota }
