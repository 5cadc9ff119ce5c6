// Command unsnap-bench regenerates the tables and figures of the UnSNAP
// paper, plus the ablations listed below and the task-kernel micro-table
// docs/BENCH.md documents. Every experiment has a bench-scale default
// that completes on a laptop; -paper switches to the paper's full problem
// sizes (hours of runtime on a small machine).
//
// Usage:
//
//	unsnap-bench -experiment table1
//	unsnap-bench -experiment fig3 -threads 1,2,4
//	unsnap-bench -experiment kernel -threads 1,2,4 -json BENCH_sweep.json
//	unsnap-bench -experiment kernel -smoke
//	unsnap-bench -experiment all
//
// Experiments (comma-separable): table1, table2, fig3, fig4, tradeoffs,
// jacobi, atomic, preassembled, kernel, all.
// The kernel experiment compares the engine's batched (group-blocked,
// allocation-free) task body against the scalar per-group body,
// reporting per-task nanoseconds and steady-state allocations per task,
// the dense local solve at the matrix sizes of orders 1..4, the
// per-task time of a high-order problem the factor cache refuses, and
// fem.ComputeMatrices per twisted element at orders 1..3. With
// -json it records its measurements as the one section of
// BENCH_sweep.json (scripts/bench.sh runs it), keeping the section it
// replaces as the before/after pair. -smoke shrinks it to a
// seconds-scale correctness pass — tiny meshes, one forced inner, no
// JSON write — so CI can exercise the bench path on every push; the
// paper-table experiments are not shrunk and keep their bench-scale
// defaults. Engine, halo-protocol, cyclic-mesh, build-cache and
// acceleration performance is judged by the traced benchmark
// (benchmark/run.sh --trace 1; docs/BENCH.md maps each question to its
// metric).
//
// -cpuprofile / -memprofile write pprof profiles covering the selected
// experiments (see the README's benchmarking section for the analysis
// workflow).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"unsnap"
	"unsnap/internal/harness"
	"unsnap/internal/la"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "unsnap-bench:", err)
		os.Exit(1)
	}
}

func parseThreads(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad thread list %q", s)
		}
		out = append(out, v)
	}
	return out, nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("unsnap-bench", flag.ContinueOnError)
	experiment := fs.String("experiment", "all", "comma-separated list of table1|table2|fig3|fig4|tradeoffs|jacobi|atomic|preassembled|kernel|all")
	threadsFlag := fs.String("threads", "1,2", "comma-separated worker counts for scaling experiments")
	jsonPath := fs.String("json", "", "write the kernel experiment's section to this JSON file")
	commit := fs.String("commit", "", "git revision to stamp into the JSON report")
	paper := fs.Bool("paper", false, "use the paper's full problem sizes (slow)")
	smoke := fs.Bool("smoke", false, "CI smoke mode for the kernel experiment: tiny meshes, 1 forced inner, no JSON write; other experiments keep their defaults")
	nx := fs.Int("nx", 0, "override elements per dimension")
	nang := fs.Int("nang", 0, "override angles per octant")
	ng := fs.Int("ng", 0, "override energy groups")
	inners := fs.Int("inners", 5, "inner iterations (timing runs; the kernel experiment defaults to 30 unless set)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile covering the selected experiments to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile (after the experiments) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		defer func() {
			// One final collection so the heap profile reflects live
			// steady-state memory, not transient garbage.
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "unsnap-bench: heap profile:", err)
			}
			f.Close()
		}()
	}
	threads, err := parseThreads(*threadsFlag)
	if err != nil {
		return err
	}
	innersSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "inners" {
			innersSet = true
		}
	})
	if *smoke {
		if *paper {
			return fmt.Errorf("-smoke and -paper are mutually exclusive")
		}
		// Smoke runs are a correctness pass over the bench plumbing, not a
		// measurement: never record them.
		*jsonPath = ""
		threads = []int{1, 2}
		*inners, innersSet = 1, true
	}

	override := func(p *unsnap.Problem) {
		if *nx > 0 {
			p.NX, p.NY, p.NZ = *nx, *nx, *nx
		}
		if *nang > 0 {
			p.AnglesPerOctant = *nang
		}
		if *ng > 0 {
			p.Groups = *ng
		}
	}

	wanted := make(map[string]bool)
	for _, name := range strings.Split(*experiment, ",") {
		wanted[strings.TrimSpace(name)] = true
	}
	want := func(name string) bool { return wanted[name] || wanted["all"] }
	ran := false
	var kernel *harness.KernelSection

	if want("table1") {
		ran = true
		fmt.Println("== Table I: local matrix size and footprint per element order ==")
		rows, err := harness.TableI(5, true)
		if err != nil {
			return err
		}
		harness.FprintTableI(os.Stdout, rows)
		fmt.Println()
	}
	if want("fig3") {
		ran = true
		cfg := harness.DefaultFig3()
		if *paper {
			cfg.Problem = unsnap.PaperFig3Problem(1)
		}
		override(&cfg.Problem)
		cfg.Threads = threads
		cfg.Inners = *inners
		fmt.Printf("== Figure 3: thread scaling, linear elements (%d^3 elements, %d ang/oct, %d groups) ==\n",
			cfg.Problem.NX, cfg.Problem.AnglesPerOctant, cfg.Problem.Groups)
		rows, err := harness.RunFig(cfg)
		if err != nil {
			return err
		}
		harness.FprintFig(os.Stdout, cfg, rows)
		fmt.Println()
	}
	if want("fig4") {
		ran = true
		cfg := harness.DefaultFig4()
		if *paper {
			cfg.Problem = unsnap.PaperFig3Problem(3)
		}
		override(&cfg.Problem)
		cfg.Threads = threads
		cfg.Inners = *inners
		fmt.Printf("== Figure 4: thread scaling, cubic elements (%d^3 elements, %d ang/oct, %d groups) ==\n",
			cfg.Problem.NX, cfg.Problem.AnglesPerOctant, cfg.Problem.Groups)
		rows, err := harness.RunFig(cfg)
		if err != nil {
			return err
		}
		harness.FprintFig(os.Stdout, cfg, rows)
		fmt.Println()
	}
	if want("table2") {
		ran = true
		cfg := harness.DefaultTable2()
		if *paper {
			cfg.Problem = unsnap.PaperTable2Problem(1)
			cfg.Orders = []int{1, 2, 3, 4}
		}
		override(&cfg.Problem)
		cfg.Inners = *inners
		fmt.Printf("== Table II: GE vs DGESV assemble/solve time (%d^3 elements, %d ang/oct, %d groups) ==\n",
			cfg.Problem.NX, cfg.Problem.AnglesPerOctant, cfg.Problem.Groups)
		rows, err := harness.RunTable2(cfg)
		if err != nil {
			return err
		}
		harness.FprintTable2(os.Stdout, rows)
		fmt.Println()
	}
	if want("tradeoffs") {
		ran = true
		cfg := harness.DefaultTradeoffs()
		override(&cfg.Problem)
		fmt.Println("== Section II-C: finite difference vs finite element trade-offs ==")
		rows, err := harness.RunTradeoffs(cfg)
		if err != nil {
			return err
		}
		harness.FprintTradeoffs(os.Stdout, rows)
		fmt.Println()
	}
	if want("jacobi") {
		ran = true
		cfg := harness.DefaultJacobi()
		override(&cfg.Problem)
		fmt.Println("== Section III-A1: block Jacobi convergence vs rank count ==")
		rows, err := harness.RunJacobi(cfg)
		if err != nil {
			return err
		}
		harness.FprintJacobi(os.Stdout, rows)
		fmt.Println()
	}
	if want("atomic") {
		ran = true
		p := unsnap.DefaultProblem()
		override(&p)
		fmt.Println("== Section IV-A3: angle threading (now engine-backed, lock-free reduction) ==")
		rows, err := harness.RunAtomic(p, threads, *inners)
		if err != nil {
			return err
		}
		harness.FprintAtomic(os.Stdout, rows)
		fmt.Println()
	}
	if want("preassembled") {
		ran = true
		p := unsnap.DefaultProblem()
		p.NX, p.NY, p.NZ = 4, 4, 4
		p.AnglesPerOctant = 2
		p.Groups = 2
		override(&p)
		fmt.Println("== Section IV-B1: pre-assembled and pre-factorised matrices ==")
		rows, err := harness.RunPreassembled(p, []int{1, 2}, *inners)
		if err != nil {
			return err
		}
		harness.FprintPreassembled(os.Stdout, rows)
		fmt.Println()
	}
	if want("kernel") {
		ran = true
		cfg := harness.DefaultKernel()
		if *smoke {
			cfg.Problem.NX, cfg.Problem.NY, cfg.Problem.NZ = 4, 4, 4
			cfg.Problem.AnglesPerOctant, cfg.Problem.Groups = 2, 2
			cfg.AllocSweeps = 2
			cfg.LASizes = []int{8, 27}
			cfg.Uncached.NX, cfg.Uncached.NY, cfg.Uncached.NZ = 2, 2, 2
			cfg.Uncached.AnglesPerOctant, cfg.Uncached.Groups = 1, 1
			cfg.MatrixOrders = []int{1, 2}
		}
		override(&cfg.Problem)
		cfg.Threads = threads
		// Keep DefaultKernel's inner count (tuned for bench stability)
		// unless the flag was given explicitly.
		if innersSet {
			cfg.Inners = *inners
		}
		fmt.Printf("== Task kernel: batched vs scalar bodies (%d^3 elements, %d ang/oct, %d groups; la kernels: %s) ==\n",
			cfg.Problem.NX, cfg.Problem.AnglesPerOctant, cfg.Problem.Groups, la.Kernels())
		rows, err := harness.RunKernel(cfg)
		if err != nil {
			return err
		}
		harness.FprintKernel(os.Stdout, cfg, rows)
		laRows := harness.RunLA(cfg.LASizes)
		uncached, err := harness.RunUncached(cfg)
		if err != nil {
			return err
		}
		harness.FprintLA(os.Stdout, cfg, laRows, uncached)
		matrices, err := harness.RunMatrices(cfg.Uncached, cfg.MatrixOrders)
		if err != nil {
			return err
		}
		harness.FprintMatrices(os.Stdout, cfg.Uncached, matrices)
		fmt.Println()
		kernel = harness.KernelSectionOf(cfg, rows, laRows, uncached, matrices)
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", *experiment)
	}
	if *jsonPath != "" && kernel != nil {
		if err := harness.WriteSweepJSON(*jsonPath, *commit, kernel); err != nil {
			return err
		}
		fmt.Println("wrote", *jsonPath)
	}
	return nil
}
