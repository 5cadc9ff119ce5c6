package unsnap

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"
)

// Spec is the wire-format description of one solve: a Problem plus the
// Options, both encoded by their own JSON tags. It is the
// job-submission payload of the solve service (cmd/unsnap-serve), and
// useful anywhere a solve configuration must cross a process boundary —
// queues, config files, test fixtures.
//
// Enumerated knobs travel as their String() spellings ("engine", "dsa",
// "feedback-arc", ...), so specs stay readable and stable across releases
// even if the internal enum values move. The Options fields that cannot
// cross a process boundary — injected artifacts, caches, callbacks, fault
// schedules, the distributed driver's knobs — are tagged json:"-" and
// never travel: the receiving process supplies those (the service
// attaches its shared cache and progress hook).
//
// Zero Options resolve to the library defaults, so the minimal useful
// spec is just a problem:
//
//	{"problem": {"nx":8,"ny":8,"nz":8,"lx":1,"ly":1,"lz":1,
//	             "order":1,"angles_per_octant":4,"groups":4}}
type Spec struct {
	Problem Problem `json:"problem"`
	Options Options `json:"options,omitzero"`
}

// SpecOptions was the serializable subset of Options.
//
// Deprecated: Options carries its own wire tags; use Options.
type SpecOptions = Options

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
// dimensional sanity plus every option combination Resolve would reject.
func (sp Spec) Validate() error {
	_, _, err := sp.Resolve()
	return err
}

// Resolve returns the (Problem, Options) pair NewSolver accepts,
// validating the combination. The returned Options carries no
// process-local field (cache, artifact, hook, ...): the caller attaches
// its own.
func (sp Spec) Resolve() (Problem, Options, error) {
	if err := sp.Problem.Validate(); err != nil {
		return Problem{}, Options{}, err
	}
	o := onWire(sp.Options)
	if err := validateOptions(o, false); err != nil {
		return Problem{}, Options{}, err
	}
	return sp.Problem, o, nil
}

// SpecOf is Resolve's inverse: it captures a (Problem, Options) pair as a
// Spec, dropping the process-local fields (Artifact, Cache, Progress,
// fault schedules, failure policies, ...). Useful for recording what a
// solve ran as, or for forwarding a locally configured solve to the
// service.
func SpecOf(p Problem, o Options) Spec { return Spec{Problem: p, Options: onWire(o)} }

// onWire returns o without its process-local fields, the ones tagged
// json:"-".
func onWire(o Options) Options {
	o.Protocol, o.PreAssembled, o.Instrument, o.FailurePolicy = 0, false, false, FailurePolicy{}
	o.Fault, o.Artifact, o.Cache, o.CacheTenant, o.CacheTenantBytes, o.Progress = nil, nil, nil, "", 0, nil
	return o
}

// optionsWire is the JSON form of Options: Deadline travels as float
// seconds, and health_checks is restated after deadline_seconds to keep
// the wire's field order. The outer fields shadow the embedded ones.
type optionsWire struct {
	optionsFields
	DeadlineSeconds float64 `json:"deadline_seconds,omitempty"`
	HealthChecks    bool    `json:"health_checks,omitempty"`
}

// optionsFields is Options without its JSON methods.
type optionsFields Options

// MarshalJSON encodes the wire fields of o.
func (o Options) MarshalJSON() ([]byte, error) {
	return json.Marshal(optionsWire{optionsFields(o), o.Deadline.Seconds(), o.HealthChecks})
}

// UnmarshalJSON decodes the wire fields strictly: an unknown key is an
// error, and so is a deadline_seconds that is not a positive number of at
// most 1e9 seconds and at least one nanosecond.
func (o *Options) UnmarshalJSON(data []byte) error {
	// An enclosing decoder's DisallowUnknownFields does not reach a custom
	// unmarshaler: restate it.
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var w optionsWire
	if err := dec.Decode(&w); err != nil {
		return err
	}
	*o = Options(w.optionsFields)
	o.HealthChecks = w.HealthChecks
	if s := w.DeadlineSeconds; s != 0 {
		if !(s > 0) || s > 1e9 {
			return fmt.Errorf("unsnap: deadline_seconds %v invalid (need a finite positive number)", s)
		}
		// Below the clock's resolution the deadline would silently become
		// "no deadline".
		if o.Deadline = time.Duration(s * float64(time.Second)); o.Deadline == 0 {
			return fmt.Errorf("unsnap: deadline_seconds %v invalid (below one nanosecond)", s)
		}
	}
	return nil
}
