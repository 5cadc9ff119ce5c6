package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
)

// scriptStepper is a Stepper with no solver behind it: inner i reports
// dfs[i] (the last entry repeats), every outer reports the same change.
type scriptStepper struct {
	dfs     []float64
	outer   float64
	failAt  int // 1-based inner that returns errScript; 0 never
	onInner func(n int)

	outers, inners int
}

var errScript = errors.New("scripted inner failure")

func (s *scriptStepper) BeginOuter() { s.outers++ }

func (s *scriptStepper) Inner() (float64, error) {
	s.inners++
	if s.onInner != nil {
		s.onInner(s.inners)
	}
	if s.inners == s.failAt {
		return 0, errScript
	}
	i := s.inners - 1
	if i >= len(s.dfs) {
		i = len(s.dfs) - 1
	}
	return s.dfs[i], nil
}

func (s *scriptStepper) OuterChange() float64 { return s.outer }

// TestIterate drives the one source-iteration driver with scripted flux
// changes: every stopping rule, limit, health check and hook it owns, with
// no transport solve in the way.
func TestIterate(t *testing.T) {
	// Epsi 0.25 keeps the outer tolerance 10*Epsi = 2.5 exact in binary.
	base := Config{Epsi: 0.25, MaxInners: 4, MaxOuters: 3}
	force := base
	force.ForceIterations = true
	health := base
	health.MaxInners, health.MaxOuters = 10, 1

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	for _, tc := range []struct {
		name  string
		cfg   Config
		ctx   context.Context
		st    scriptStepper
		agree func(float64) (float64, error)

		wantErr            error // matched with errors.Is
		wantDiverged       bool
		inners, outers     int // Result counts (on success) and stepper calls
		converged          bool
		history            []float64
		stepperInnersOnErr int
	}{
		{name: "inner exit at the first df below Epsi", cfg: base,
			st:     scriptStepper{dfs: []float64{1, 0.25, 0.125, 1}, outer: 2.5},
			inners: 3, outers: 1, converged: true, history: []float64{1, 0.25, 0.125}},
		{name: "MaxInners and MaxOuters bound an unconverged run", cfg: base,
			st:     scriptStepper{dfs: []float64{0.5}, outer: 2.5000001},
			inners: 12, outers: 3, converged: false},
		{name: "defaults are core.Config's: 1 outer of 5 inners", cfg: Config{},
			st:     scriptStepper{dfs: []float64{0.5}, outer: 1},
			inners: 5, outers: 1, converged: false},
		{name: "ForceIterations runs MaxOuters x MaxInners and never agrees", cfg: force,
			st: scriptStepper{dfs: []float64{0}, outer: 0},
			agree: func(float64) (float64, error) {
				t.Error("agree consulted under ForceIterations")
				return 0, nil
			},
			inners: 12, outers: 3, converged: false},
		{name: "an inner's error is returned as is", cfg: base,
			st:      scriptStepper{dfs: []float64{0.5}, outer: 9, failAt: 6},
			wantErr: errScript, stepperInnersOnErr: 6},
		{name: "a cancelled context stops before the next inner", cfg: base, ctx: ctx,
			st: scriptStepper{dfs: []float64{0.5}, outer: 9, onInner: func(n int) {
				if n == 2 {
					cancel()
				}
			}},
			wantErr: context.Canceled, stepperInnersOnErr: 2},
		{name: "five consecutive df >= 1 diverge", cfg: health,
			st:           scriptStepper{dfs: []float64{2}, outer: 9},
			wantDiverged: true, stepperInnersOnErr: 6}, // the first observation is skipped
		{name: "four do not", cfg: health,
			st:     scriptStepper{dfs: []float64{2, 2, 2, 2, 2, 0.5, 2, 2, 2, 2}, outer: 9},
			inners: 10, outers: 1, converged: false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.ctx
			if c == nil {
				c = context.Background()
			}
			st := tc.st
			res, err := Iterate(c, tc.cfg, &st, tc.agree)
			if tc.wantErr != nil || tc.wantDiverged {
				var he *HealthError
				switch {
				case err == nil:
					t.Fatalf("want an error, got result %+v", res)
				case tc.wantErr == errScript && err != errScript:
					t.Fatalf("inner error was wrapped or replaced: %v", err)
				case tc.wantErr != nil && !errors.Is(err, tc.wantErr):
					t.Fatalf("got error %v, want %v", err, tc.wantErr)
				case tc.wantDiverged && (!errors.As(err, &he) || he.Kind != HealthDiverged):
					t.Fatalf("got error %v, want a HealthDiverged *HealthError", err)
				}
				if st.inners != tc.stepperInnersOnErr {
					t.Fatalf("stepper ran %d inners before the error, want %d", st.inners, tc.stepperInnersOnErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if res.Inners != tc.inners || res.Outers != tc.outers || res.Converged != tc.converged {
				t.Fatalf("got %d inners / %d outers / converged=%v, want %d / %d / %v",
					res.Inners, res.Outers, res.Converged, tc.inners, tc.outers, tc.converged)
			}
			if st.inners != tc.inners || st.outers != tc.outers {
				t.Fatalf("stepper ran %d inners / %d outers, result says %d / %d",
					st.inners, st.outers, tc.inners, tc.outers)
			}
			if len(res.DFHistory) != res.Inners || res.FinalDF != res.DFHistory[res.Inners-1] {
				t.Fatalf("history %v / FinalDF %v inconsistent with %d inners", res.DFHistory, res.FinalDF, res.Inners)
			}
			if tc.history != nil && !reflect.DeepEqual(res.DFHistory, tc.history) {
				t.Fatalf("history %v, want %v", res.DFHistory, tc.history)
			}
		})
	}
}

// TestIterateAgree pins the reduction hook: agree is handed every local
// value a convergence test is about to read — each inner's df, then the
// outer change — and the driver records and decides on what it returns.
func TestIterateAgree(t *testing.T) {
	// Locally every inner has converged; a slower peer holds the global
	// change up for two inners of the first outer, and the first outer
	// test up too.
	peer := []float64{1, 0.5, 0, 9, 0, 0}
	var got []float64
	agree := func(v float64) (float64, error) {
		got = append(got, v)
		if p := peer[len(got)-1]; p > v {
			return p, nil
		}
		return v, nil
	}
	st := scriptStepper{dfs: []float64{0.125}, outer: 0.0625}
	res, err := Iterate(context.Background(), Config{Epsi: 0.25, MaxInners: 4, MaxOuters: 3}, &st, agree)
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{0.125, 0.125, 0.125, 0.0625, 0.125, 0.0625}; !reflect.DeepEqual(got, want) {
		t.Fatalf("agree saw %v, want the local values %v", got, want)
	}
	if want := []float64{1, 0.5, 0.125, 0.125}; !reflect.DeepEqual(res.DFHistory, want) {
		t.Fatalf("history %v, want the agreed values %v", res.DFHistory, want)
	}
	if res.Outers != 2 || res.Inners != 4 || !res.Converged {
		t.Fatalf("got %d outers / %d inners / converged=%v, want 2 / 4 / true", res.Outers, res.Inners, res.Converged)
	}

	// agree's error ends the run as is.
	boom := errors.New("peer failed")
	_, err = Iterate(context.Background(), Config{}, &scriptStepper{dfs: []float64{1}},
		func(float64) (float64, error) { return 0, boom })
	if err != boom {
		t.Fatalf("got %v, want agree's error", err)
	}
}

// TestScanFluxHealth pins the flux scan every inner runs: a NaN and
// either infinity are found and located, the largest finite values are
// not.
func TestScanFluxHealth(t *testing.T) {
	cfg := engineProblem(t)
	cfg.Scheme, cfg.Threads = SchemeEngine, 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const e, g, node = 5, 1, 3
	i := s.phiIdx(e, g) + node
	for _, v := range []float64{math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64} {
		s.phi[i] = v
		if err := s.ScanFluxHealth(); err != nil {
			t.Fatalf("finite %g flagged: %v", v, err)
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		s.phi[i] = v
		var he *HealthError
		if err := s.ScanFluxHealth(); !errors.As(err, &he) || he.Kind != HealthNaN ||
			he.Elem != e || he.Group != g || he.Node != node {
			t.Fatalf("%g: got %v, want HealthNaN at elem %d group %d node %d", v, err, e, g, node)
		}
	}
}
