package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"text/tabwriter"

	"unsnap"
)

// EngineConfig drives the engine-vs-legacy sweep comparison: the
// persistent worker-pool engine against one of the paper's bucket
// executors on the same problem, across thread counts.
type EngineConfig struct {
	Problem unsnap.Problem
	Threads []int
	Legacy  unsnap.Scheme // baseline executor (default SchemeAEg)
	Inners  int
}

// DefaultEngine compares on a Figure 3-style workload at bench scale:
// linear elements on a twisted 6^3 mesh with 4 angles per octant and 8
// groups — the shallow-bucket regime where the element schemes starve
// for parallelism and where the engine's angle-parallel wavefronts and
// per-task group reuse have the most to offer.
func DefaultEngine() EngineConfig {
	p := unsnap.DefaultProblem()
	p.NX, p.NY, p.NZ = 6, 6, 6
	p.AnglesPerOctant = 4
	p.Groups = 8
	return EngineConfig{
		Problem: p,
		Threads: []int{1, 2, 4},
		Legacy:  unsnap.AEg,
		// 10 forced inners per measurement: at 5 the run-to-run noise on a
		// small box is comparable to the engine-vs-overlap gap.
		Inners: 10,
	}
}

// EngineRow is one measured thread count of the comparison. The ns/op
// figures are per sweep (SweepSeconds over the forced inner count),
// matching the go-bench BenchmarkEngine family. Engine is the sequential
// -octant engine (the PR-1 behaviour, forced via OctantsSequential);
// Overlap is the cross-octant fused task graph (OctantsAuto on a vacuum
// problem). The speedups are relative to the legacy executor.
type EngineRow struct {
	Threads        int     `json:"threads"`
	LegacyNsOp     float64 `json:"legacy_ns_op"`
	EngineNsOp     float64 `json:"engine_ns_op"`
	OverlapNsOp    float64 `json:"overlap_ns_op"`
	Speedup        float64 `json:"speedup"`
	OverlapSpeedup float64 `json:"overlap_speedup"`
}

// ProblemShape is the serialised problem identification of a bench
// section.
type ProblemShape struct {
	NX              int `json:"nx"`
	Order           int `json:"order"`
	AnglesPerOctant int `json:"angles_per_octant"`
	Groups          int `json:"groups"`
}

func shapeOf(p unsnap.Problem) ProblemShape {
	return ProblemShape{NX: p.NX, Order: p.Order, AnglesPerOctant: p.AnglesPerOctant, Groups: p.Groups}
}

// MachineInfo identifies the hardware and toolchain a bench section was
// measured on. Like Commit it is per-section metadata: sections merge by
// key, so numbers measured on different machines (or Go versions) keep
// their own provenance.
type MachineInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func machineInfo() *MachineInfo {
	return &MachineInfo{
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
}

// EngineSection is the serialised engine-vs-legacy comparison. Commit is
// the revision the section was last measured at: sections are merged by
// key into BENCH_sweep.json (a partial bench refresh leaves the other
// sections untouched), so each one carries its own stamp (and its
// machine metadata).
type EngineSection struct {
	Commit       string       `json:"commit,omitempty"`
	Machine      *MachineInfo `json:"machine,omitempty"`
	Problem      ProblemShape `json:"problem"`
	LegacyScheme string       `json:"legacy_scheme"`
	Inners       int          `json:"inners_per_run"`
	Rows         []EngineRow  `json:"rows"`
}

// EngineSectionOf packages an engine run for WriteSweepJSON.
func EngineSectionOf(cfg EngineConfig, rows []EngineRow) *EngineSection {
	return &EngineSection{
		Problem:      shapeOf(cfg.Problem),
		LegacyScheme: cfg.Legacy.String(),
		Inners:       cfg.Inners,
		Rows:         rows,
	}
}

// SweepReport is BENCH_sweep.json: the sections of whichever sweep
// experiments ran. The top-level commit is the revision of the most
// recent write; each section additionally carries the commit it was
// measured at, because WriteSweepJSON merges by section key — a partial
// refresh (say `-experiment cycles`) updates only the cycles section and
// preserves the engine/comm history verbatim.
type SweepReport struct {
	Commit string         `json:"commit,omitempty"`
	Engine *EngineSection `json:"engine,omitempty"`
	Comm   *CommSection   `json:"comm,omitempty"`
	Cycles *CyclesSection `json:"cycles,omitempty"`
	Setup  *SetupSection  `json:"setup,omitempty"`
	Kernel *KernelSection `json:"kernel,omitempty"`
	Accel  *AccelSection  `json:"accel,omitempty"`
}

// Sections bundles the refreshed sections of one bench run for
// WriteSweepJSON; nil members keep whatever the existing report holds.
type Sections struct {
	Engine *EngineSection
	Comm   *CommSection
	Cycles *CyclesSection
	Setup  *SetupSection
	Kernel *KernelSection
	Accel  *AccelSection
}

// RunEngine measures all three executors at every thread count: the
// legacy bucket scheme, the engine with sequential octant phases, and
// the engine with the fused cross-octant graph.
func RunEngine(cfg EngineConfig) ([]EngineRow, error) {
	type variant struct {
		scheme  unsnap.Scheme
		octants unsnap.OctantMode
	}
	variants := []variant{
		{cfg.Legacy, unsnap.OctantsAuto},
		{unsnap.Engine, unsnap.OctantsSequential},
		// OctantsFused (not Auto) so the overlap column stays a genuine
		// cross-octant measurement even at sizes where Auto would prefer
		// the slab cache and fall back to sequential phases.
		{unsnap.Engine, unsnap.OctantsFused},
	}
	rows := make([]EngineRow, 0, len(cfg.Threads))
	for _, threads := range cfg.Threads {
		var nsop [3]float64
		for i, v := range variants {
			s, err := unsnap.NewSolver(cfg.Problem, unsnap.Options{
				Scheme: v.scheme, Threads: threads, Octants: v.octants,
				MaxInners: cfg.Inners, MaxOuters: 1, ForceIterations: true,
			})
			if err != nil {
				return nil, fmt.Errorf("harness: engine experiment scheme %v threads %d: %w", v.scheme, threads, err)
			}
			res, err := s.Run()
			s.Close()
			if err != nil {
				return nil, err
			}
			nsop[i] = res.SweepSeconds * 1e9 / float64(cfg.Inners)
		}
		row := EngineRow{
			Threads:    threads,
			LegacyNsOp: nsop[0], EngineNsOp: nsop[1], OverlapNsOp: nsop[2],
		}
		if nsop[1] > 0 {
			row.Speedup = nsop[0] / nsop[1]
		}
		if nsop[2] > 0 {
			row.OverlapSpeedup = nsop[0] / nsop[2]
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FprintEngine writes the comparison table.
func FprintEngine(w io.Writer, cfg EngineConfig, rows []EngineRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Threads\t%s (ns/sweep)\tengine (ns/sweep)\toverlap (ns/sweep)\tspeedup\toverlap speedup\n", cfg.Legacy)
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%.0f\t%.0f\t%.0f\t%.2fx\t%.2fx\n",
			r.Threads, r.LegacyNsOp, r.EngineNsOp, r.OverlapNsOp, r.Speedup, r.OverlapSpeedup)
	}
	tw.Flush()
}

// WriteSweepJSON records the sweep benchmark sections for the perf
// trajectory (scripts/bench.sh writes it to BENCH_sweep.json at the repo
// root, stamping the measured git commit). Sections merge by key: a nil
// section keeps whatever the existing file holds — with its original
// commit and machine stamps — so refreshing one experiment never
// rewrites the others' history. An existing file that does not parse is
// an error, not a silent overwrite.
func WriteSweepJSON(path, commit string, s Sections) error {
	var rep SweepReport
	if prev, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(prev, &rep); err != nil {
			return fmt.Errorf("harness: existing %s is not a sweep report (refusing to overwrite): %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	// Stamp copies: the caller's sections stay untouched.
	rep.Commit = commit
	mi := machineInfo()
	if s.Engine != nil {
		sec := *s.Engine
		sec.Commit, sec.Machine = commit, mi
		rep.Engine = &sec
	}
	if s.Comm != nil {
		sec := *s.Comm
		sec.Commit, sec.Machine = commit, mi
		rep.Comm = &sec
	}
	if s.Cycles != nil {
		sec := *s.Cycles
		sec.Commit, sec.Machine = commit, mi
		rep.Cycles = &sec
	}
	if s.Setup != nil {
		sec := *s.Setup
		sec.Commit, sec.Machine = commit, mi
		rep.Setup = &sec
	}
	if s.Kernel != nil {
		sec := *s.Kernel
		sec.Commit, sec.Machine = commit, mi
		if old := rep.Kernel; old != nil && old.Commit != commit && old.Machine != nil && *old.Machine == *mi {
			prev := *old
			prev.Previous = nil
			sec.Previous = &prev
		}
		rep.Kernel = &sec
	}
	if s.Accel != nil {
		sec := *s.Accel
		sec.Commit, sec.Machine = commit, mi
		rep.Accel = &sec
	}
	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
