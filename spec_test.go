package unsnap

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// TestSpecResolveRoundTrip pins the wire format's round trip: with every
// wire field of Options set to a non-default legal value, a spec survives
// JSON, and Resolve -> SpecOf reproduces it exactly. DSA excludes
// reflective and time-dependent runs, so the fields are covered by two
// variants.
func TestSpecResolveRoundTrip(t *testing.T) {
	full := legalOptions(t)
	noAccel, noTime := full, full
	noAccel.Accelerate = AccelNone
	noTime.Reflect, noTime.TimeSteps, noTime.TimeDt = [3]bool{}, 0, 0

	p := DefaultProblem()
	p.TwistPeriods = 2
	p.Twist = 0.35
	covered := make(map[string]bool)
	for _, o := range []Options{noAccel, noTime} {
		sp := SpecOf(p, o)
		data, err := json.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		parsed, err := ParseSpec(data)
		if err != nil {
			t.Fatalf("spec rejected: %v\n%s", err, data)
		}
		if !reflect.DeepEqual(parsed, sp) {
			t.Fatalf("JSON round trip: got %+v, want %+v", parsed, sp)
		}
		gotP, gotO, err := parsed.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		if back := SpecOf(gotP, gotO); !reflect.DeepEqual(back, sp) {
			t.Fatalf("Resolve -> SpecOf: got %+v, want %+v", back, sp)
		}
		sv := reflect.ValueOf(sp.Options)
		for i := 0; i < sv.NumField(); i++ {
			if !sv.Field(i).IsZero() {
				covered[sv.Type().Field(i).Name] = true
			}
		}
	}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Options{})) {
		if f.Tag.Get("json") != "-" && !covered[f.Name] {
			t.Errorf("wire field Options.%s was never set to a non-default value", f.Name)
		}
	}
}

// TestOptionsWireTags pins the one options type's wire tags: every
// Options field has a json tag, so none reaches the wire under its Go
// name by accident, and SpecOf and Resolve zero every json:"-" field and
// keep every other.
func TestOptionsWireTags(t *testing.T) {
	o := legalOptions(t)
	o.Accelerate = AccelNone // DSA excludes Reflect and TimeSteps
	_, resolved, err := Spec{Problem: DefaultProblem(), Options: o}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]Options{"SpecOf": SpecOf(DefaultProblem(), o).Options, "Resolve": resolved} {
		v := reflect.ValueOf(got)
		for i, f := range reflect.VisibleFields(v.Type()) {
			tag, ok := f.Tag.Lookup("json")
			switch {
			case !ok:
				t.Errorf("Options.%s has no json tag", f.Name)
			case tag == "-" && !v.Field(i).IsZero():
				t.Errorf("%s keeps the process-local Options.%s", name, f.Name)
			case tag != "-" && v.Field(i).IsZero() && f.Name != "Accelerate":
				t.Errorf("%s drops the wire field Options.%s", name, f.Name)
			}
		}
	}
}

// optionsLegal gives every Options field a legal non-default value. A
// field added to Options without an entry here fails legalOptions, so
// every test built on it.
var optionsLegal = map[string]any{
	"Scheme": AEG, "Threads": 2, "Solver": DGESV, "Protocol": CommPipelined,
	"Accelerate": AccelDSA, "Epsi": 1e-5, "MaxInners": 7, "MaxOuters": 3,
	"ForceIterations": true, "AllowCycles": true, "CycleOrder": OrderFeedbackArc,
	"PreAssembled": true, "Instrument": true, "Reflect": [3]bool{true, false, true},
	"TimeSteps": 2, "TimeDt": 0.25, "Deadline": time.Second,
	"FailurePolicy": FailurePolicy{Mode: FailRetry}, "HealthChecks": true, "Fault": &FaultSchedule{},
	"Artifact": &Artifact{}, "Cache": NewCache(1 << 20), "CacheTenant": "t",
	"CacheTenantBytes": int64(1 << 20), "Progress": func(Progress) {},
}

// optionsFacadeOnly lists the Options fields the facade consumes itself
// (the distributed driver's knobs, the run deadline) or keeps only for
// the wire (HealthChecks, a no-op: the guards always run); every other field
// must reach core.Config, under its own name unless optionsCoreName
// renames it.
var (
	optionsFacadeOnly = map[string]bool{
		"Protocol": true, "Deadline": true, "FailurePolicy": true, "Fault": true,
		"HealthChecks": true,
	}
	optionsCoreName = map[string]string{"TimeSteps": "Time", "TimeDt": "Time"}
)

// TestOptionsReachCoreConfig pins the Options -> core.Config hand copy by
// reflection: with every Options field set to a non-default value,
// coreConfig yields a Config whose counterpart field is non-zero. A knob
// added to Options and forgotten in coreConfig — how PR 7 found ScatOrder
// silently dropped on the distributed path — fails here.
func TestOptionsReachCoreConfig(t *testing.T) {
	o := legalOptions(t)
	ov := reflect.ValueOf(o)
	p := DefaultProblem()
	p.ScatOrder = 1
	cfg := coreConfig(p, o, nil, nil, nil)
	if cfg.ScatOrder != 1 || cfg.Order != p.Order {
		t.Errorf("Problem.ScatOrder / Order did not reach core.Config: %d / %d", cfg.ScatOrder, cfg.Order)
	}
	cv := reflect.ValueOf(cfg)
	for i := 0; i < ov.NumField(); i++ {
		name := ov.Type().Field(i).Name
		if optionsFacadeOnly[name] {
			continue
		}
		core := name
		if renamed, ok := optionsCoreName[name]; ok {
			core = renamed
		}
		f := cv.FieldByName(core)
		if !f.IsValid() {
			t.Errorf("Options.%s: core.Config has no field %s", name, core)
		} else if f.IsZero() {
			t.Errorf("Options.%s is set but core.Config.%s is zero: coreConfig drops it", name, core)
		}
	}
}

// legalOptions returns Options with every field set from optionsLegal.
func legalOptions(t *testing.T) Options {
	t.Helper()
	var o Options
	ov := reflect.ValueOf(&o).Elem()
	for i := 0; i < ov.NumField(); i++ {
		name := ov.Type().Field(i).Name
		val, ok := optionsLegal[name]
		if !ok {
			t.Fatalf("Options.%s has no legal non-default value in optionsLegal", name)
		}
		ov.Field(i).Set(reflect.ValueOf(val))
	}
	return o
}

// TestSpecMinimal pins that a problem-only spec resolves to the library
// defaults.
func TestSpecMinimal(t *testing.T) {
	sp, err := ParseSpec([]byte(`{"problem":{"nx":4,"ny":4,"nz":4,
		"lx":1,"ly":1,"lz":1,"order":1,"angles_per_octant":2,"groups":2}}`))
	if err != nil {
		t.Fatal(err)
	}
	_, o, err := sp.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if o.Scheme != Engine || o.Solver != GE || o.Accelerate != AccelNone {
		t.Fatalf("minimal spec did not resolve to defaults: %+v", o)
	}
}

// TestSpecRejections pins the validation surface: unknown knob
// spellings, unknown JSON fields and dimensional nonsense all fail with
// a structured error instead of resolving to something unintended.
func TestSpecRejections(t *testing.T) {
	valid := `"problem":{"nx":4,"ny":4,"nz":4,"lx":1,"ly":1,"lz":1,
		"order":1,"angles_per_octant":2,"groups":2}`
	cases := map[string]string{
		"unknown field":      `{` + valid + `, "optoins":{}}`,
		"unknown scheme":     `{` + valid + `, "options":{"scheme":"warp"}}`,
		"unknown solver":     `{` + valid + `, "options":{"solver":"MKL"}}`,
		"removed octants":    `{` + valid + `, "options":{"octants":"sequential"}}`,
		"removed kernel":     `{` + valid + `, "options":{"kernel":"scalar"}}`,
		"removed scheme":     `{` + valid + `, "options":{"scheme":"ANGLE/element/group"}}`,
		"unknown accel":      `{` + valid + `, "options":{"accelerate":"p-air"}}`,
		"unknown cycle rule": `{` + valid + `, "options":{"cycle_order":"random"}}`,
		"negative deadline":  `{` + valid + `, "options":{"deadline_seconds":-1}}`,
		"sub-ns deadline":    `{` + valid + `, "options":{"deadline_seconds":1e-12}}`,
		"zero grid":          `{"problem":{"nx":0,"ny":4,"nz":4,"lx":1,"ly":1,"lz":1,"order":1,"angles_per_octant":2,"groups":2}}`,
		"bad scat ratio":     `{"problem":{"nx":4,"ny":4,"nz":4,"lx":1,"ly":1,"lz":1,"order":1,"angles_per_octant":2,"groups":2,"scat_ratio":1.5}}`,
		"dsa with reflect":   `{` + valid + `, "options":{"accelerate":"dsa","reflect":[true,false,false]}}`,
		"not json":           `{"problem":`,
	}
	for name, body := range cases {
		if _, err := ParseSpec([]byte(body)); err == nil {
			t.Errorf("%s: spec %s was accepted", name, body)
		}
	}
}

// FuzzParseSpec: ParseSpec never panics, every spec it accepts
// round-trips through SpecOf(Resolve()) to an equal spec, and its bytes
// parse back to that spec — up to the nanosecond resolution of the
// deadline, which travels as float seconds.
func FuzzParseSpec(f *testing.F) {
	problem := `"problem":{"nx":4,"ny":4,"nz":4,"lx":1,"ly":1,"lz":1,"order":1,"angles_per_octant":2,"groups":2}`
	for _, seed := range []string{
		// README.md's service walkthrough and the specs of this file.
		`{"problem": {"nx":8,"ny":8,"nz":8,"lx":1,"ly":1,"lz":1,"order":1,"angles_per_octant":4,"groups":4},
		  "options": {"epsi":1e-5,"accelerate":"dsa","deadline_seconds":60}}`,
		`{` + problem + `}`,
		`{` + problem + `, "options":{"epsi":1e-4,"max_inners":10,"max_outers":4}}`,
		`{` + problem + `, "options":{"scheme":"engine","solver":"GE","accelerate":"none","cycle_order":"element-index"}}`,
		`{` + problem + `, "options":{"scheme":"angle/ELEMENT/GROUP","solver":"DGESV","threads":2,"reflect":[true,false,false],"time_steps":2,"time_dt":0.1}}`,
		`{` + problem + `, "options":{"allow_cycles":true,"cycle_order":"feedback-arc","deadline_seconds":1.5e-9,"health_checks":true}}`,
		`{` + problem + `, "options":{"octants":"sequential","kernel":"scalar"}}`,
		`{` + problem + `, "optoins":{}}`,
		`{"problem":`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := ParseSpec(data)
		if err != nil {
			return
		}
		p, o, err := sp.Resolve()
		if err != nil {
			t.Fatalf("ParseSpec accepted a spec Resolve rejects: %v\n%s", err, data)
		}
		got := SpecOf(p, o)
		if !reflect.DeepEqual(got, sp) {
			t.Fatalf("SpecOf(Resolve()): got %+v, want %+v\n%s", got, sp, data)
		}
		wire, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseSpec(wire)
		if err != nil {
			t.Fatalf("SpecOf's bytes rejected: %v\n%s", err, wire)
		}
		if d := back.Options.Deadline - got.Options.Deadline; d < -1 || d > 1 {
			t.Fatalf("deadline %v came back as %v\n%s", got.Options.Deadline, back.Options.Deadline, wire)
		}
		back.Options.Deadline = got.Options.Deadline
		if !reflect.DeepEqual(back, got) {
			t.Fatalf("bytes round trip: got %+v, want %+v\n%s", back, got, wire)
		}
	})
}

// TestSpecSolves pins that a resolved spec actually drives a solve: the
// service-facing path (ParseSpec -> Resolve -> NewSolver -> RunContext)
// produces a converged result with a progress event per inner.
func TestSpecSolves(t *testing.T) {
	sp, err := ParseSpec([]byte(`{"problem":{"nx":4,"ny":4,"nz":4,
		"lx":1,"ly":1,"lz":1,"order":1,"angles_per_octant":2,"groups":2},
		"options":{"epsi":1e-4,"max_inners":10,"max_outers":4}}`))
	if err != nil {
		t.Fatal(err)
	}
	p, o, err := sp.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	var events []Progress
	o.Progress = func(pr Progress) { events = append(events, pr) }
	s, err := NewSolver(p, o)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("spec solve did not converge: %+v", res)
	}
	if len(events) != res.Inners {
		t.Fatalf("progress events %d, want one per inner (%d)", len(events), res.Inners)
	}
	last := events[len(events)-1]
	if last.Inners != res.Inners || last.DF != res.FinalDF {
		t.Fatalf("final progress event %+v does not match result (inners %d, df %v)",
			last, res.Inners, res.FinalDF)
	}
}
