package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func tinyConfig(t *testing.T, trace bool) runConfig {
	t.Helper()
	g, err := loadGolden("", false)
	if err != nil {
		t.Fatal(err)
	}
	return runConfig{seed: defaultSeed, seconds: 0.1, trace: trace, tiny: true, p: 1,
		golden: g, traceOut: filepath.Join(t.TempDir(), "trace.json"), stamp: makeStamp(1)}
}

// TestEveryMetricEmitted runs all five workloads at smoke-test size, plain
// and traced, and holds the output to BENCHMARK.json: every named metric
// is emitted with its unit and nothing else is, the answers check out,
// spans nest, and the named spans cover each operation's wall time.
func TestEveryMetricEmitted(t *testing.T) {
	spec, err := loadBenchmarkSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range spec.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		for _, trace := range []bool{false, true} {
			rep, err := runWorkload(w.Name, tinyConfig(t, trace))
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.Name, trace, err)
			}
			if rep.failed != 0 || rep.attempted < 1 {
				t.Errorf("%s trace=%t: %d of %d operations failed: %v", w.Name, trace, rep.failed, rep.attempted, rep.failures)
			}
			for name, unit := range want[trace] {
				m, ok := rep.metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%t: metric %s not emitted", w.Name, trace, name)
				case m.Unit != unit:
					t.Errorf("%s trace=%t: metric %s has unit %q, BENCHMARK.json says %q", w.Name, trace, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%t: metric %s = %v", w.Name, trace, name, m.Value)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, name, m.Value)
				}
			}
			for name := range rep.metrics {
				if _, ok := want[trace][name]; !ok {
					t.Errorf("%s trace=%t: metric %s is not in BENCHMARK.json", w.Name, trace, name)
				}
				if !metricName.MatchString(name) {
					t.Errorf("%s: metric name %q is not of the allowed form", w.Name, name)
				}
			}
			if trace {
				if !rep.spansNest {
					t.Errorf("%s: spans do not nest", w.Name)
				}
				if rep.spanCoverage < 0.95 {
					t.Errorf("%s: named spans cover only %.1f%% of an operation", w.Name, 100*rep.spanCoverage)
				}
				if data, err := os.ReadFile(rep.rc.traceOut); err != nil || !json.Valid(data) {
					t.Errorf("%s: trace file: %v", w.Name, err)
				}
			}
		}
	}
}

// TestCorruptGoldenFails shows the command exits non-zero when an output
// check fails: the same run passes against the recorded answers and fails
// against a copy with one flux integral changed in the ninth digit.
func TestCorruptGoldenFails(t *testing.T) {
	args := func(golden string) []string {
		return []string{"-workload", "solve_lo", "-tiny", "-seconds", "0.05", "-p", "1",
			"-golden", golden, "-trace-out", filepath.Join(t.TempDir(), "trace.json")}
	}
	var out, errOut bytes.Buffer
	if code := run(args("golden.json"), &out, &errOut); code != 0 {
		t.Fatalf("run against golden.json exited %d: %s%s", code, out.String(), errOut.String())
	}

	var entries map[string]goldenEntry
	if err := json.Unmarshal(builtinGolden, &entries); err != nil {
		t.Fatal(err)
	}
	key := "solve_lo/seed=1/tiny"
	e, ok := entries[key]
	if !ok {
		t.Fatalf("golden.json has no entry %s", key)
	}
	e.Flux = append([]float64(nil), e.Flux...)
	e.Flux[0] *= 1 + 1e-8
	entries[key] = e
	data, _ := json.Marshal(entries)
	bad := filepath.Join(t.TempDir(), "golden.json")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := run(args(bad), &out, &errOut); code != 1 {
		t.Fatalf("run against a corrupted golden file exited %d, want 1:\n%s", code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || res.Correct || res.Failed != 1 {
		t.Errorf("last line %q: want correct=false failed=1 (%v)", lines[len(lines)-1], err)
	}
}

// TestInputsFollowSeed pins the seed contract: equal seeds give equal
// inputs, different seeds different ones.
func TestInputsFollowSeed(t *testing.T) {
	for _, w := range workloads {
		hash := func(seed uint64) string {
			if isService(w.name) {
				return makeServeCase(w.name, seed, 2, true).hash()
			}
			return makeLibCase(w.name, seed, 2, true).hash()
		}
		if hash(7) != hash(7) {
			t.Errorf("%s: seed 7 gives two different inputs", w.name)
		}
		if hash(7) == hash(8) {
			t.Errorf("%s: seeds 7 and 8 give the same inputs", w.name)
		}
	}
}

// TestCompareRefusesOtherMachine: results stamped by different machines
// are not comparable; a different commit is.
func TestCompareRefusesOtherMachine(t *testing.T) {
	a := resultFile{Workload: "solve_lo", Stamp: stamp{Commit: "aaa", NProc: 2, P: 2}, Metrics: map[string]metric{"op_p50_s": {1, "s"}}}
	b := a
	b.Stamp.Commit = "bbb"
	b.Metrics = map[string]metric{"op_p50_s": {1.5, "s"}}
	var out, errOut bytes.Buffer
	if code := compareResults([]resultFile{a}, []resultFile{b}, &out, &errOut); code != 1 {
		t.Errorf("a 50%% slower op_p50_s compared as %d, want 1 (regression): %s%s", code, out.String(), errOut.String())
	}
	b.Stamp.NProc = 4
	if code := compareResults([]resultFile{a}, []resultFile{b}, &out, &errOut); code != 2 {
		t.Errorf("results from another machine compared as %d, want 2 (refused)", code)
	}
}

// TestQuantileMatchesPython pins quantile to statistics.quantiles(v, n=4),
// the rule the acceptance spread is computed with.
func TestQuantileMatchesPython(t *testing.T) {
	v := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}
	// statistics.quantiles(v, n=4) == [1.75, 3.5, 5.25]
	for p, want := range map[float64]float64{0.25: 1.75, 0.5: 3.5, 0.75: 5.25} {
		if got := quantile(v, p); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", p, got, want)
		}
	}
}
