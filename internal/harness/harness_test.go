package harness

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"unsnap"
)

func TestTableIAnalytic(t *testing.T) {
	rows, err := TableI(5, false)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Table I values.
	want := []struct {
		dim int
		kb  float64
	}{{8, 0.5}, {27, 5.7}, {64, 32.0}, {125, 122.1}, {216, 364.5}}
	for i, r := range rows {
		if r.MatrixDim != want[i].dim {
			t.Fatalf("order %d: dim %d, want %d", r.Order, r.MatrixDim, want[i].dim)
		}
		if math.Abs(r.FootprintKB-want[i].kb) > 0.06 {
			t.Fatalf("order %d: %.1f kB, want %.1f", r.Order, r.FootprintKB, want[i].kb)
		}
	}
}

func TestTableIMeasured(t *testing.T) {
	var rows []TableIRow
	// Wall-clock comparison: retry to ride out scheduler noise (the
	// order-2 system does ~30x the solve flops of order 1).
	for attempt := 0; attempt < 3; attempt++ {
		var err error
		rows, err = TableI(2, true)
		if err != nil {
			t.Fatal(err)
		}
		if rows[0].AssembleSolveNS <= 0 || rows[1].AssembleSolveNS <= 0 {
			t.Fatal("measured times missing")
		}
		if rows[1].AssembleSolveNS > rows[0].AssembleSolveNS {
			break
		}
		if attempt == 2 {
			t.Fatalf("order 2 (%d ns) not slower than order 1 (%d ns) after retries",
				rows[1].AssembleSolveNS, rows[0].AssembleSolveNS)
		}
	}
	var buf bytes.Buffer
	FprintTableI(&buf, rows)
	if !strings.Contains(buf.String(), "8x8") {
		t.Fatalf("table output missing dims: %s", buf.String())
	}
}

func tinyProblem() unsnap.Problem {
	p := unsnap.DefaultProblem()
	p.NX, p.NY, p.NZ = 3, 3, 3
	p.AnglesPerOctant = 1
	p.Groups = 2
	return p
}

func TestRunFigTiny(t *testing.T) {
	cfg := DefaultFig3()
	cfg.Problem = tinyProblem()
	cfg.Threads = []int{1, 2}
	cfg.Schemes = []unsnap.Scheme{unsnap.AEg, unsnap.AGE}
	cfg.Inners = 2
	rows, err := RunFig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if r.Seconds <= 0 {
			t.Fatalf("non-positive time for %v T=%d", r.Scheme, r.Threads)
		}
	}
	var buf bytes.Buffer
	FprintFig(&buf, cfg, rows)
	if !strings.Contains(buf.String(), "T=1") || !strings.Contains(buf.String(), "T=2") {
		t.Fatalf("figure table malformed: %s", buf.String())
	}
}

func TestRunTable2Tiny(t *testing.T) {
	cfg := DefaultTable2()
	cfg.Problem = tinyProblem()
	cfg.Orders = []int{1, 2}
	cfg.Inners = 2
	var rows []Table2Row
	// The cost-vs-order comparison is physically robust (order 2 does
	// ~30x the flops of order 1) but this is wall-clock measurement on a
	// possibly noisy machine: allow a couple of retries before declaring
	// the ordering broken.
	for attempt := 0; attempt < 3; attempt++ {
		var err error
		rows, err = RunTable2(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 2 {
			t.Fatalf("got %d rows", len(rows))
		}
		for _, r := range rows {
			if r.GESeconds <= 0 || r.LUSeconds <= 0 {
				t.Fatalf("missing timings: %+v", r)
			}
			if r.GESolvePct <= 0 || r.GESolvePct >= 100 {
				t.Fatalf("solve fraction out of range: %+v", r)
			}
		}
		if rows[1].GESeconds > rows[0].GESeconds {
			break
		}
		if attempt == 2 {
			t.Fatalf("order 2 should cost more than order 1 (3 attempts): %+v", rows)
		}
	}
	var buf bytes.Buffer
	FprintTable2(&buf, rows)
	if !strings.Contains(buf.String(), "% in solve") {
		t.Fatal("table2 output malformed")
	}
}

func TestRunTradeoffsTiny(t *testing.T) {
	cfg := DefaultTradeoffs()
	cfg.Problem.NX, cfg.Problem.NY, cfg.Problem.NZ = 4, 4, 4
	cfg.Problem.AnglesPerOctant = 2
	cfg.Problem.Groups = 1
	cfg.Orders = []int{1, 2}
	cfg.MeasureOrders = 1
	rows, err := RunTradeoffs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].MemoryRatio != 8 || rows[1].MemoryRatio != 27 {
		t.Fatalf("memory ratios wrong: %+v", rows)
	}
	if rows[0].FluxRelDiff > 0.05 {
		t.Fatalf("FD/FEM flux difference too large: %v", rows[0].FluxRelDiff)
	}
	if rows[1].FEMSeconds != 0 {
		t.Fatal("order 2 should not have been measured")
	}
	var buf bytes.Buffer
	FprintTradeoffs(&buf, rows)
	if !strings.Contains(buf.String(), "mem x FD") {
		t.Fatal("tradeoffs output malformed")
	}
}

func TestRunJacobiTiny(t *testing.T) {
	cfg := DefaultJacobi()
	cfg.Problem.NX, cfg.Problem.NY, cfg.Problem.NZ = 4, 4, 4
	cfg.Grids = [][2]int{{1, 1}, {2, 2}}
	cfg.Epsi = 1e-6
	rows, err := RunJacobi(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[1].Inners < rows[0].Inners {
		t.Fatalf("more ranks should not converge faster: %+v", rows)
	}
	var buf bytes.Buffer
	FprintJacobi(&buf, rows)
	if !strings.Contains(buf.String(), "Ranks") {
		t.Fatal("jacobi output malformed")
	}
}

func TestRunAtomicTiny(t *testing.T) {
	rows, err := RunAtomic(tinyProblem(), []int{1, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.AEGSeconds <= 0 || r.EngineSeconds <= 0 {
			t.Fatalf("missing timing: %+v", r)
		}
	}
	var buf bytes.Buffer
	FprintAtomic(&buf, rows)
	if !strings.Contains(buf.String(), "ANGLE") {
		t.Fatal("atomic output malformed")
	}
}

func TestRunPreassembledTiny(t *testing.T) {
	rows, err := RunPreassembled(tinyProblem(), []int{1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	r := rows[0]
	if r.OnTheFlySecs <= 0 || r.PreSweepSecs <= 0 {
		t.Fatalf("missing timings: %+v", r)
	}
	if r.MatrixMemMB <= 0 {
		t.Fatalf("matrix memory estimate missing: %+v", r)
	}
	var buf bytes.Buffer
	FprintPreassembled(&buf, rows)
	if !strings.Contains(buf.String(), "pre-assembled") {
		t.Fatal("preassembled output malformed")
	}
}
