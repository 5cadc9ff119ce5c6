package unsnap

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"
)

// Spec is the wire-format description of one solve: a Problem plus the
// serializable subset of Options, both as plain JSON-taggable data. It is
// the job-submission payload of the solve service (cmd/unsnap-serve), and
// useful anywhere a solve configuration must cross a process boundary —
// queues, config files, test fixtures.
//
// Enumerated knobs travel as their String() spellings ("engine", "dsa",
// "feedback-arc", ...), so specs stay readable and stable across releases
// even if the internal enum values move. Knobs that cannot cross a
// process boundary — injected artifacts, caches, callbacks, fault
// schedules — are deliberately absent: the receiving process supplies
// those (the service attaches its shared cache and progress hook).
//
// A zero SpecOptions resolves to the library defaults, so the minimal
// useful spec is just a problem:
//
//	{"problem": {"nx":8,"ny":8,"nz":8,"lx":1,"ly":1,"lz":1,
//	             "order":1,"angles_per_octant":4,"groups":4}}
type Spec struct {
	Problem Problem     `json:"problem"`
	Options SpecOptions `json:"options,omitzero"`
}

// SpecOptions is the serializable subset of Options. Field semantics
// match the Options field of the same name; see Options for the full
// documentation.
type SpecOptions struct {
	// Scheme is the sweep executor by paper-style name: "engine" (the
	// default), "angle/ELEMENT/group", ... (see ParseScheme).
	Scheme  string `json:"scheme,omitempty"`
	Threads int    `json:"threads,omitempty"`
	// Solver is "GE" (default) or "DGESV".
	Solver string `json:"solver,omitempty"`
	// Accelerate is "none" (default) or "dsa".
	Accelerate string `json:"accelerate,omitempty"`

	Epsi            float64 `json:"epsi,omitempty"`
	MaxInners       int     `json:"max_inners,omitempty"`
	MaxOuters       int     `json:"max_outers,omitempty"`
	ForceIterations bool    `json:"force_iterations,omitempty"`

	AllowCycles bool `json:"allow_cycles,omitempty"`
	// CycleOrder is "element-index" (default) or "feedback-arc".
	CycleOrder string `json:"cycle_order,omitempty"`

	Reflect [3]bool `json:"reflect,omitzero"`

	TimeSteps int     `json:"time_steps,omitempty"`
	TimeDt    float64 `json:"time_dt,omitempty"`

	// DeadlineSeconds bounds the run's wall-clock time (Options.Deadline);
	// zero means no deadline.
	DeadlineSeconds float64 `json:"deadline_seconds,omitempty"`
	HealthChecks    bool    `json:"health_checks,omitempty"`
}

// ParseSpec decodes a JSON spec strictly: unknown fields are rejected (a
// typo in a knob name means the caller's intent would be silently
// dropped), and the decoded spec is validated via Spec.Validate.
func ParseSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return Spec{}, fmt.Errorf("unsnap: invalid spec: %w", err)
	}
	if err := sp.Validate(); err != nil {
		return Spec{}, err
	}
	return sp, nil
}

// Validate checks the spec without building anything: the problem's
// dimensional sanity plus every enumerated option spelling and option
// combination Resolve would reject.
func (sp Spec) Validate() error {
	_, _, err := sp.Resolve()
	return err
}

// Resolve translates the spec into the (Problem, Options) pair NewSolver
// accepts, resolving every enumerated spelling and validating the
// combination. The returned Options carries no cache, artifact or hook —
// the caller attaches process-local resources.
func (sp Spec) Resolve() (Problem, Options, error) {
	p := sp.Problem
	if err := p.Validate(); err != nil {
		return Problem{}, Options{}, err
	}
	so := sp.Options
	o := Options{
		Threads:         so.Threads,
		Epsi:            so.Epsi,
		MaxInners:       so.MaxInners,
		MaxOuters:       so.MaxOuters,
		ForceIterations: so.ForceIterations,
		AllowCycles:     so.AllowCycles,
		Reflect:         so.Reflect,
		TimeSteps:       so.TimeSteps,
		TimeDt:          so.TimeDt,
		HealthChecks:    so.HealthChecks,
	}
	if so.Scheme != "" {
		s, err := ParseScheme(so.Scheme)
		if err != nil {
			return Problem{}, Options{}, err
		}
		o.Scheme = s
	}
	switch so.Solver {
	case "", "GE":
	case "DGESV":
		o.Solver = DGESV
	default:
		return Problem{}, Options{}, fmt.Errorf("unsnap: unknown solver %q (GE|DGESV)", so.Solver)
	}
	switch so.Accelerate {
	case "", "none":
	case "dsa":
		o.Accelerate = AccelDSA
	default:
		return Problem{}, Options{}, fmt.Errorf("unsnap: unknown acceleration %q (none|dsa)", so.Accelerate)
	}
	if so.CycleOrder != "" {
		ord, err := ParseCycleOrder(so.CycleOrder)
		if err != nil {
			return Problem{}, Options{}, err
		}
		o.CycleOrder = ord
	}
	if so.DeadlineSeconds != 0 {
		if !(so.DeadlineSeconds > 0) || so.DeadlineSeconds > 1e9 {
			return Problem{}, Options{}, fmt.Errorf("unsnap: deadline_seconds %v invalid (need a finite positive number)", so.DeadlineSeconds)
		}
		o.Deadline = time.Duration(so.DeadlineSeconds * float64(time.Second))
		if o.Deadline == 0 {
			// Below the clock's resolution: resolving it to "no deadline"
			// would silently drop the caller's bound.
			return Problem{}, Options{}, fmt.Errorf("unsnap: deadline_seconds %v invalid (below one nanosecond)", so.DeadlineSeconds)
		}
	}
	if err := validateOptions(o, false); err != nil {
		return Problem{}, Options{}, err
	}
	return p, o, nil
}

// SpecOf is Resolve's inverse for the serializable subset: it captures a
// (Problem, Options) pair as a Spec, dropping the process-local knobs
// (Artifact, Cache, Progress, fault schedules, failure policies). Useful
// for recording what a solve ran as, or for forwarding a locally
// configured solve to the service.
func SpecOf(p Problem, o Options) Spec {
	so := SpecOptions{
		Threads:         o.Threads,
		Epsi:            o.Epsi,
		MaxInners:       o.MaxInners,
		MaxOuters:       o.MaxOuters,
		ForceIterations: o.ForceIterations,
		AllowCycles:     o.AllowCycles,
		Reflect:         o.Reflect,
		TimeSteps:       o.TimeSteps,
		TimeDt:          o.TimeDt,
		HealthChecks:    o.HealthChecks,
		DeadlineSeconds: o.Deadline.Seconds(),
	}
	if o.Scheme != Engine {
		so.Scheme = o.Scheme.String()
	}
	if o.Solver != GE {
		so.Solver = o.Solver.String()
	}
	if o.Accelerate != AccelNone {
		so.Accelerate = o.Accelerate.String()
	}
	if o.CycleOrder != OrderElementIndex {
		so.CycleOrder = o.CycleOrder.String()
	}
	return Spec{Problem: p, Options: so}
}
