package unsnap

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"os"
	"testing"
	"time"
)

// wireCorpusPath holds json.Marshal(SpecOf(p, o)) for every pair of
// wireCorpus, one line each, prefixed by ParseSpec's verdict on the
// document ("accept" or "reject"). It was recorded from the SpecOptions
// transfer struct that Options' own tags replaced, and is never
// regenerated: a byte that moves is a wire format change.
const wireCorpusPath = "testdata/spec_wire.txt"

// wireCorpus returns n seeded (Problem, Options) pairs spanning every
// wire field, invalid problems and option combinations Resolve rejects,
// and the process-local fields SpecOf drops.
func wireCorpus(n int) ([]Problem, []Options) {
	r := rand.New(rand.NewPCG(39, 2018))
	coin := func() bool { return r.IntN(2) == 0 }
	pick := func(v float64) float64 {
		if coin() {
			return 0
		}
		return v
	}
	cache := NewCache(1 << 20)
	ps, opts := make([]Problem, n), make([]Options, n)
	for i := range ps {
		p := DefaultProblem()
		p.NX, p.NY, p.NZ = 1+r.IntN(6), 1+r.IntN(6), 1+r.IntN(6)
		p.LX, p.LY = 0.5+r.Float64(), pick(1+r.Float64())
		if p.LY == 0 {
			p.LY = 2
		}
		p.Twist = pick(r.Float64() * 0.5)
		p.TwistPeriods = pick(float64(r.IntN(3)))
		p.MatOpt, p.SrcOpt = r.IntN(2), r.IntN(2)
		p.Order, p.AnglesPerOctant, p.Groups = 1+r.IntN(3), 1+r.IntN(4), 1+r.IntN(5)
		if coin() {
			p.PGCPolar, p.PGCAzi = r.IntN(3), r.IntN(3)
		}
		p.ScatOrder = r.IntN(2)
		p.ScatRatio = pick(r.Float64() * 0.99)
		switch r.IntN(16) { // one invalid problem field in a quarter of the pairs
		case 0:
			p.NX = 0
		case 1:
			p.LZ = -1
		case 2:
			p.Order = 0
		case 3:
			p.ScatRatio = 1.5
		}
		ps[i] = p

		var o Options
		if coin() {
			o.Scheme = AllSchemes()[r.IntN(len(AllSchemes()))]
		}
		o.Threads = r.IntN(9)
		o.Solver = SolverKind(r.IntN(2))
		o.Accelerate = AccelMode(r.IntN(2))
		o.Epsi = pick(r.Float64() * 1e-3)
		o.MaxInners, o.MaxOuters = r.IntN(60), r.IntN(5)
		o.ForceIterations, o.AllowCycles = coin(), coin()
		o.CycleOrder = CycleOrder(r.IntN(2))
		o.Reflect = [3]bool{r.IntN(4) == 0, r.IntN(4) == 0, r.IntN(4) == 0}
		if r.IntN(4) == 0 {
			o.TimeSteps, o.TimeDt = 1+r.IntN(3), r.Float64()
		}
		switch r.IntN(8) {
		case 0, 1:
			o.Deadline = time.Duration(1 + r.IntN(1000))
		case 2, 3:
			o.Deadline = time.Duration(r.Int64N(int64(time.Hour)))
		case 4:
			o.Deadline = -time.Second
		}
		o.HealthChecks = coin()
		if r.IntN(3) == 0 { // process-local: SpecOf drops every one
			o.Protocol = CommProtocol(r.IntN(2))
			o.PreAssembled, o.Instrument = coin(), coin()
			o.FailurePolicy = FailurePolicy{Mode: FailureMode(r.IntN(3)), MaxRetries: r.IntN(3), Backoff: time.Millisecond}
			o.Fault = &FaultSchedule{Seed: r.Int64()}
			o.Artifact = &Artifact{}
			o.Cache, o.CacheTenant, o.CacheTenantBytes = cache, "t", 1<<20
			o.Progress = func(Progress) {}
		}
		opts[i] = o
	}
	return ps, opts
}

// TestSpecWireCorpus pins the wire format against the recorded corpus:
// SpecOf's bytes and ParseSpec's verdict on them are unchanged, pair by
// pair.
func TestSpecWireCorpus(t *testing.T) {
	data, err := os.ReadFile(wireCorpusPath)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for sc := bufio.NewScanner(bytes.NewReader(data)); sc.Scan(); {
		want = append(want, append([]byte(nil), sc.Bytes()...))
	}
	ps, opts := wireCorpus(len(want))
	if len(want) < 200 {
		t.Fatalf("corpus holds %d pairs, want at least 200", len(want))
	}
	accepted := 0
	for i := range ps {
		got, err := json.Marshal(SpecOf(ps[i], opts[i]))
		if err != nil {
			t.Fatal(err)
		}
		verdict := "accept "
		if _, err := ParseSpec(got); err != nil {
			verdict = "reject "
		} else {
			accepted++
		}
		if line := append([]byte(verdict), got...); !bytes.Equal(line, want[i]) {
			t.Errorf("pair %d:\n got %s\nwant %s", i, line, want[i])
		}
	}
	if accepted == 0 || accepted == len(ps) {
		t.Errorf("corpus verdicts are all alike (%d of %d accepted)", accepted, len(ps))
	}
}
