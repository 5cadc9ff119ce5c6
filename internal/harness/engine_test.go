package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunEngineTiny(t *testing.T) {
	cfg := DefaultEngine()
	cfg.Problem = tinyProblem()
	cfg.Threads = []int{1, 2}
	cfg.Inners = 2
	rows, err := RunEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.LegacyNsOp <= 0 || r.EngineNsOp <= 0 || r.Speedup <= 0 {
			t.Fatalf("row not measured: %+v", r)
		}
		if r.OverlapNsOp <= 0 || r.OverlapSpeedup <= 0 {
			t.Fatalf("octant-overlap column not measured: %+v", r)
		}
	}
	var buf bytes.Buffer
	FprintEngine(&buf, cfg, rows)
	if !strings.Contains(buf.String(), "engine (ns/sweep)") {
		t.Fatalf("table output malformed: %s", buf.String())
	}

	path := filepath.Join(t.TempDir(), "bench.json")
	if err := WriteSweepJSON(path, "deadbeef", Sections{Engine: EngineSectionOf(cfg, rows)}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep SweepReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Engine == nil || len(rep.Engine.Rows) != 2 || rep.Engine.Rows[0].Threads != 1 ||
		rep.Engine.Problem.Groups != cfg.Problem.Groups {
		t.Fatalf("report round trip wrong: %+v", rep)
	}
	if rep.Commit != "deadbeef" {
		t.Fatalf("commit stamp lost: %+v", rep)
	}
	if rep.Comm != nil {
		t.Fatalf("comm section should be omitted when nil: %+v", rep)
	}
}

func TestRunCyclesTiny(t *testing.T) {
	cfg := DefaultCycles()
	// Smallest verified-cyclic shape (see the core package's cyclic
	// tests): 4^3 at 0.8 rad over 3 periods.
	cfg.Problem.NX, cfg.Problem.NY, cfg.Problem.NZ = 4, 4, 4
	cfg.Problem.Twist, cfg.Problem.TwistPeriods = 0.8, 3
	cfg.Problem.AnglesPerOctant = 4
	cfg.Problem.Groups = 2
	cfg.Threads = []int{1, 2}
	cfg.Inners = 2
	rows, strats, err := RunCycles(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	if len(strats) != 2 || strats[0].Order != "element-index" || strats[1].Order != "feedback-arc" {
		t.Fatalf("strategy rows wrong: %+v", strats)
	}
	for _, st := range strats {
		if st.LaggedEdges == 0 || st.ConvInners == 0 || !st.Converged {
			t.Fatalf("strategy row not measured: %+v", st)
		}
	}
	if strats[1].LaggedEdges >= strats[0].LaggedEdges {
		t.Fatalf("feedback-arc must lag strictly fewer edges than element-index on the cyclic test mesh: %+v", strats)
	}
	for _, r := range rows {
		if r.LegacyNsOp <= 0 || r.EngineNsOp <= 0 || r.EngineFANsOp <= 0 || r.PipelinedNsOp <= 0 ||
			r.EngineSpeedup <= 0 || r.EngineFASpeedup <= 0 || r.PipelinedSpeedup <= 0 {
			t.Fatalf("row not measured: %+v", r)
		}
	}
	var buf bytes.Buffer
	FprintCycles(&buf, cfg, rows, strats)
	if !strings.Contains(buf.String(), "engine+pipelined (ns/sweep)") ||
		!strings.Contains(buf.String(), "feedback-arc") {
		t.Fatalf("table output malformed: %s", buf.String())
	}

	path := filepath.Join(t.TempDir(), "bench.json")
	if err := WriteSweepJSON(path, "deadbeef", Sections{Cycles: CyclesSectionOf(cfg, rows, strats)}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep SweepReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Cycles == nil || len(rep.Cycles.Rows) != 2 || rep.Cycles.LaggedEdges != strats[0].LaggedEdges ||
		len(rep.Cycles.Strategies) != 2 || rep.Cycles.Grid != "2x1" || rep.Cycles.Periods != 3 {
		t.Fatalf("cycles report round trip wrong: %+v", rep.Cycles)
	}
	if rep.Engine != nil || rep.Comm != nil {
		t.Fatalf("nil sections should be omitted: %+v", rep)
	}

	// Merge-by-key: a later engine-only write must preserve the cycles
	// section (with its original commit stamp) and restamp the top level.
	engCfg := DefaultEngine()
	engCfg.Problem = tinyProblem()
	eng := EngineSectionOf(engCfg, []EngineRow{{Threads: 1, LegacyNsOp: 1, EngineNsOp: 1, OverlapNsOp: 1, Speedup: 1, OverlapSpeedup: 1}})
	if err := WriteSweepJSON(path, "cafe1234", Sections{Engine: eng}); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rep = SweepReport{}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Commit != "cafe1234" || rep.Engine == nil || rep.Engine.Commit != "cafe1234" {
		t.Fatalf("engine refresh not stamped: %+v", rep)
	}
	if rep.Cycles == nil || rep.Cycles.Commit != "deadbeef" || len(rep.Cycles.Strategies) != 2 {
		t.Fatalf("cycles section lost by partial refresh: %+v", rep.Cycles)
	}

	// A corrupt existing file must refuse the merge instead of clobbering.
	bad := filepath.Join(t.TempDir(), "corrupt.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteSweepJSON(bad, "cafe1234", Sections{Engine: eng}); err == nil {
		t.Fatal("corrupt existing report should refuse the write")
	}
}

func TestRunCommTiny(t *testing.T) {
	cfg := DefaultComm()
	cfg.Problem = tinyProblem()
	cfg.Problem.NY, cfg.Problem.NZ = 2, 2
	cfg.Grids = [][2]int{{1, 2}}
	cfg.Threads = []int{1}
	cfg.Inners = 2
	cfg.Epsi = 1e-4
	rows, conv, err := RunComm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || len(conv) != 1 {
		t.Fatalf("got %d rows, %d conv rows", len(rows), len(conv))
	}
	if rows[0].LaggedNsOp <= 0 || rows[0].PipelinedNsOp <= 0 || rows[0].Speedup <= 0 {
		t.Fatalf("row not measured: %+v", rows[0])
	}
	// The pipelined protocol's defining property: it never takes more
	// inners than the single-domain solver; the lagged protocol may.
	if conv[0].PipelinedInners != conv[0].SingleInners {
		t.Fatalf("pipelined inners %d != single-domain %d", conv[0].PipelinedInners, conv[0].SingleInners)
	}
	if conv[0].LaggedInners < conv[0].SingleInners {
		t.Fatalf("lagged inners %d below single-domain %d", conv[0].LaggedInners, conv[0].SingleInners)
	}
	var buf bytes.Buffer
	FprintComm(&buf, cfg, rows, conv)
	if !strings.Contains(buf.String(), "pipelined (ns/sweep)") {
		t.Fatalf("table output malformed: %s", buf.String())
	}
}

// TestKernelSectionLAAndPrevious: the la table measures every size, and a
// kernel refresh keeps the section it replaces as the "before" of a
// before/after pair — once, from another commit on the same machine.
func TestKernelSectionLAAndPrevious(t *testing.T) {
	rows := RunLA([]int{27, 64})
	if len(rows) != 2 || rows[1].N != 64 || rows[1].GENs <= 0 || rows[1].FactorNs <= 0 || rows[1].TriSolveNs <= 0 {
		t.Fatalf("la rows not measured: %+v", rows)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	write := func(commit string) *KernelSection {
		t.Helper()
		sec := &KernelSection{LA: rows, UncachedTaskNs: 1}
		if err := WriteSweepJSON(path, commit, Sections{Kernel: sec}); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var rep SweepReport
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
		return rep.Kernel
	}
	if k := write("aaaa"); k.Previous != nil || len(k.LA) != 2 || k.UncachedTaskNs != 1 {
		t.Fatalf("first write: %+v", k)
	}
	if k := write("aaaa"); k.Previous != nil {
		t.Fatalf("same-commit refresh kept a previous section: %+v", k.Previous)
	}
	if k := write("bbbb"); k.Previous == nil || k.Previous.Commit != "aaaa" {
		t.Fatalf("new-commit refresh lost the previous section: %+v", k)
	}
	if k := write("cccc"); k.Previous == nil || k.Previous.Commit != "bbbb" || k.Previous.Previous != nil {
		t.Fatalf("previous sections must not chain: %+v", k.Previous)
	}
}
