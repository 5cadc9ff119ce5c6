// Command benchmark is the repository's end-to-end benchmark: five
// seeded workloads (two single-domain solves, one distributed solve, two
// service traffic mixes), each checked for correct output in the same
// run, with a traced mode that probes every layer. See README.md.
//
// One workload, the form BENCHMARK.json's command runs:
//
//	benchmark --workload solve_lo --seed 7 --seconds 20 --trace 0
//
// prints the metrics and ends with one JSON object
// {"correct", "attempted", "failed", "metrics"}. Several workloads
// (-workload a,b or all) and -aa N run each workload in a fresh child
// process, so peak memory and collector state do not leak between them.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"unsnap/internal/la"
)

// defaultSeed is the seed golden.json holds answers for. A performance
// claim must also hold on a seed that was not used while the change was
// written.
const defaultSeed = 1

// defaultSeconds mirrors run_seconds in BENCHMARK.json.
const defaultSeconds = 20

// maxP caps the parallelism of every workload: sweep threads, service
// workers and load-generator clients.
const maxP = 4

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// stamp identifies the machine and build a result was measured on.
type stamp struct {
	Commit     string `json:"commit"`
	NProc      int    `json:"nproc"`
	P          int    `json:"p"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
}

// sameMachine reports whether two results may be compared: everything
// but the commit must agree.
func (s stamp) sameMachine(o stamp) bool {
	s.Commit, o.Commit = "", ""
	return s == o
}

func makeStamp(p int) stamp {
	st := stamp{
		Commit: "unknown", NProc: runtime.NumCPU(), P: p,
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPU: "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		st.Commit = strings.TrimSpace(string(out))
		if dirty, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(bytes.TrimSpace(dirty)) > 0 {
			st.Commit += "-dirty"
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				st.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return st
}

// runConfig is what one workload run is given.
type runConfig struct {
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool
	p        int
	golden   *goldenSet
	traceOut string
	stamp    stamp
}

func (rc runConfig) window() time.Duration {
	return time.Duration(rc.seconds * float64(time.Second))
}

// report is one workload run's outcome.
type report struct {
	workload, why     string
	service           bool // a service traffic mix, not a library solve
	rc                runConfig
	inputSHA          string
	attempted, failed int
	failures, notes   []string
	metrics           map[string]metric
	samples           map[string]int
	order             []string
	calibNS           [2]float64
	spanCoverage      float64
	spansNest         bool
}

func newReport(w workloadInfo, rc runConfig, sha string) *report {
	return &report{workload: w.name, service: isService(w.name), why: w.why, rc: rc, inputSHA: sha,
		metrics: map[string]metric{}, samples: map[string]int{}}
}

// set records a metric with its unit and the number of samples behind it.
func (r *report) set(name string, v float64, unit string, n int) {
	if _, dup := r.metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{v, unit}
	r.samples[name] = n
}

func (r *report) has(name string) bool { _, ok := r.metrics[name]; return ok }

func (r *report) note(format string, a ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, a...))
}

// noisy reports a calibration drift above 10% across the run.
func (r *report) noisy() bool {
	a, b := r.calibNS[0], r.calibNS[1]
	return a > 0 && (b > 1.1*a || a > 1.1*b)
}

// resultFile is the -out form of a report (and what -compare reads).
type resultFile struct {
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Seed      uint64            `json:"seed"`
	InputSHA  string            `json:"input_sha256"`
	Stamp     stamp             `json:"stamp"`
	Noisy     bool              `json:"noisy"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Samples   map[string]int    `json:"samples"`
}

func (r *report) file() resultFile {
	return resultFile{Workload: r.workload, Trace: r.rc.trace, Seed: r.rc.seed, InputSHA: r.inputSHA,
		Stamp: r.rc.stamp, Noisy: r.noisy(), Attempted: r.attempted, Failed: r.failed,
		Metrics: r.metrics, Samples: r.samples}
}

// print writes the human-readable block and, last, the one-line JSON
// result the driver reads.
func (r *report) print(w io.Writer) {
	st := r.rc.stamp
	fmt.Fprintf(w, "workload %s  seed %d  trace %t  window %.1fs\n", r.workload, r.rc.seed, r.rc.trace, r.rc.seconds)
	fmt.Fprintf(w, "  why: %s\n", r.why)
	fmt.Fprintf(w, "  stamp: commit %s  nproc %d  P %d  GOMAXPROCS %d  %s  %s\n", st.Commit, st.NProc, st.P, st.GOMAXPROCS, st.GoVersion, st.CPU)
	fmt.Fprintf(w, "  input sha256: %s\n", r.inputSHA)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	fmt.Fprintf(w, "  calibration: %.0f ns before, %.0f ns after", r.calibNS[0], r.calibNS[1])
	if r.noisy() {
		fmt.Fprint(w, "  (drift > 10%: NOISY run)")
	}
	fmt.Fprintln(w)
	for _, name := range r.order {
		m := r.metrics[name]
		fmt.Fprintf(w, "  %-28s %14.6g %-8s n=%d\n", name, m.Value, m.Unit, r.samples[name])
	}
	fmt.Fprintf(w, "  operations: %d attempted, %d failed\n", r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, r.metrics})
	fmt.Fprintf(w, "%s\n", line)
}

// calibrate times a fixed dense solve; the figure taken before and after
// a workload shows whether the machine changed speed under it.
func calibrate() float64 {
	const n, solves = 32, 1000
	src := la.NewMatrix(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			src.Set(i, j, 1/float64(1+i+j))
		}
		src.Add(i, i, n)
	}
	a := la.NewMatrix(n)
	b := make([]float64, n)
	x := make([]float64, n)
	return medianOf(5, func() {
		for k := 0; k < solves; k++ {
			a.CopyFrom(src)
			for i := range b {
				b[i] = 1
			}
			if err := la.SolveGE(a, b, x); err != nil {
				panic(err) // diagonally dominant: cannot be singular
			}
		}
	}) / solves * 1e9
}

// peakRSSMB is the process's VmHWM.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(v)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// runWorkload runs one workload in this process.
func runWorkload(name string, rc runConfig) (rep *report, err error) {
	w, ok := findWorkload(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	defer func() {
		// Layer probes abort through panic(error); anything else is a bug
		// and keeps its stack.
		if r := recover(); r != nil {
			e, isErr := r.(error)
			if !isErr {
				panic(r)
			}
			rep, err = nil, e
		}
	}()
	before := calibrate()
	if isService(name) {
		rep, err = runServe(w, rc)
	} else {
		rep, err = runLibrary(w, rc)
	}
	if err != nil {
		return nil, err
	}
	rep.calibNS = [2]float64{before, calibrate()}
	if rc.trace {
		rep.set("machine.calib_ns", (rep.calibNS[0]+rep.calibNS[1])/2, "ns", 2)
	} else if !rep.has("peak_rss_mb") {
		rep.set("peak_rss_mb", peakRSSMB(), "MB", 1)
	}
	return rep, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		names    = fs.String("workload", "all", "workload name, comma-separated names, or all")
		seed     = fs.Int64("seed", defaultSeed, "input seed; the generated inputs are a pure function of it")
		seconds  = fs.Float64("seconds", defaultSeconds, "length of the timed window")
		trace    = fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
		p        = fs.Int("p", min(runtime.NumCPU(), maxP), "parallelism: sweep threads, service workers, clients")
		tiny     = fs.Bool("tiny", false, "shrink every workload to smoke-test size")
		aa       = fs.Int("aa", 0, "run N back-to-back sets and print the spread of every end-to-end metric")
		goldenP  = fs.String("golden", "", "read (and with -update-golden write) this golden file instead of the built-in one")
		update   = fs.Bool("update-golden", false, "rewrite the golden file from this run's answers")
		out      = fs.String("out", "", "also write the results as JSON to this file")
		traceOut = fs.String("trace-out", "", "where a traced run writes its spans (default .bench_build/trace-<workload>.json)")
		compare  = fs.String("compare", "", "old.json,new.json: compare two -out files and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "benchmark: "+format+"\n", a...)
		return 2
	}
	if *compare != "" {
		return compareFiles(*compare, stdout, stderr)
	}
	if *p < 1 || *p > runtime.NumCPU() {
		return fail("P = %d must be between 1 and nproc = %d", *p, runtime.NumCPU())
	}
	if *p > maxP {
		return fail("P = %d exceeds the benchmark's cap of %d", *p, maxP)
	}
	if !(*seconds > 0) || *seconds > 60 {
		return fail("-seconds %v must be in (0, 60]", *seconds)
	}
	var list []string
	if *names == "all" {
		for _, w := range workloads {
			list = append(list, w.name)
		}
	} else {
		list = strings.Split(*names, ",")
	}
	for _, n := range list {
		if _, ok := findWorkload(n); !ok {
			return fail("unknown workload %q", n)
		}
	}

	if *aa > 0 || len(list) > 1 {
		// A child gets this run's settings and one workload.
		child := []string{"-seed", fmt.Sprint(*seed), "-seconds", fmt.Sprint(*seconds), "-trace", fmt.Sprint(*trace),
			"-p", fmt.Sprint(*p), "-golden", *goldenP, fmt.Sprintf("-tiny=%t", *tiny), fmt.Sprintf("-update-golden=%t", *update)}
		return runChildren(list, max(1, *aa), child, *out, stdout, stderr)
	}

	golden, err := loadGolden(*goldenP, *update)
	if err != nil {
		return fail("%v", err)
	}
	rc := runConfig{seed: uint64(*seed), seconds: *seconds, trace: *trace != 0, tiny: *tiny, p: *p,
		golden: golden, traceOut: *traceOut, stamp: makeStamp(*p)}
	if rc.traceOut == "" {
		rc.traceOut = filepath.Join(".bench_build", "trace-"+list[0]+".json")
	}
	rep, err := runWorkload(list[0], rc)
	if err != nil {
		return fail("%v", err)
	}
	if err := golden.save(); err != nil {
		return fail("%v", err)
	}
	if *out != "" {
		data, _ := json.MarshalIndent([]resultFile{rep.file()}, "", " ")
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return fail("%v", err)
		}
	}
	rep.print(stdout)
	if rep.failed > 0 {
		return 1
	}
	return 0
}

// runChildren runs sets x workloads, each in a fresh child process of
// this binary, and prints the per-metric spread when sets > 1.
func runChildren(list []string, sets int, base []string, out string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	tmp, err := os.MkdirTemp(".", ".bench_children_")
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	defer os.RemoveAll(tmp)

	status := 0
	var all []resultFile
	for set := 0; set < sets; set++ {
		for _, name := range list {
			file := filepath.Join(tmp, fmt.Sprintf("%s-%d.json", name, set))
			cmd := exec.Command(exe, append(append([]string{}, base...), "-workload", name, "-out", file)...)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s (set %d): %v\n", name, set, err)
				status = 1
			}
			if data, err := os.ReadFile(file); err == nil {
				var rf []resultFile
				if json.Unmarshal(data, &rf) == nil {
					all = append(all, rf...)
				}
			}
		}
	}
	if out != "" {
		data, _ := json.MarshalIndent(all, "", " ")
		if err := os.WriteFile(out, data, 0o644); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 2
		}
	}
	if sets > 1 && !spreadTable(all, stdout, stderr) {
		status = 1
	}
	return status
}

// benchmarkSpec is BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// loadBenchmarkSpec reads BENCHMARK.json from the working directory or
// its parent (the benchmark runs from either).
func loadBenchmarkSpec() (*benchmarkSpec, error) {
	var firstErr error
	for _, c := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		data, err := os.ReadFile(c)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var spec benchmarkSpec
		if err := json.Unmarshal(data, &spec); err != nil {
			return nil, fmt.Errorf("%s: %w", c, err)
		}
		return &spec, nil
	}
	return nil, firstErr
}

// metricValues gathers every metric's values over the results, keyed
// "workload\tmetric".
func metricValues(rfs []resultFile) map[string][]float64 {
	m := map[string][]float64{}
	for _, rf := range rfs {
		for name, v := range rf.Metrics {
			m[rf.Workload+"\t"+name] = append(m[rf.Workload+"\t"+name], v.Value)
		}
	}
	return m
}

// spreadTable prints, per workload and end-to-end metric, the median,
// quartiles and spread over the sets, and reports whether every spread
// is within the metric's bound.
func spreadTable(all []resultFile, stdout, stderr io.Writer) bool {
	spec, err := loadBenchmarkSpec()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: -aa needs the bounds in BENCHMARK.json: %v\n", err)
		return false
	}
	values := metricValues(all)
	ok := true
	fmt.Fprintf(stdout, "\n%-14s %-12s %3s %12s %12s %12s %8s %7s\n", "workload", "metric", "n", "p25", "median", "p75", "spread", "bound")
	for _, w := range workloads {
		for _, e := range spec.EndToEnd {
			v := values[w.name+"\t"+e.Name]
			if len(v) < 2 {
				continue
			}
			verdict := ""
			// setup_s is held to its bound on the drift of its median
			// between sets of runs, not on its spread within one.
			if s := spread(v); s > e.Bound && e.Name != "setup_s" {
				verdict, ok = "  OVER", false
			}
			fmt.Fprintf(stdout, "%-14s %-12s %3d %12.5g %12.5g %12.5g %7.1f%% %6.0f%%%s\n",
				w.name, e.Name, len(v), quantile(v, 0.25), median(v), quantile(v, 0.75), 100*spread(v), 100*e.Bound, verdict)
		}
	}
	return ok
}

// compareFiles prints new against old for every metric both hold, and
// fails when an end-to-end metric is worse by more than its bound. It
// refuses files measured on different machines.
func compareFiles(pair string, stdout, stderr io.Writer) int {
	oldPath, newPath, ok := strings.Cut(pair, ",")
	if !ok {
		fmt.Fprintln(stderr, "benchmark: -compare takes old.json,new.json")
		return 2
	}
	load := func(path string) ([]resultFile, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rf []resultFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if len(rf) == 0 {
			return nil, fmt.Errorf("%s: no results", path)
		}
		return rf, nil
	}
	a, err := load(oldPath)
	if err == nil {
		var b []resultFile
		if b, err = load(newPath); err == nil {
			return compareResults(a, b, stdout, stderr)
		}
	}
	fmt.Fprintf(stderr, "benchmark: %v\n", err)
	return 2
}

func compareResults(a, b []resultFile, stdout, stderr io.Writer) int {
	for _, rf := range append(append([]resultFile{}, a...), b...) {
		if !rf.Stamp.sameMachine(a[0].Stamp) {
			fmt.Fprintf(stderr, "benchmark: refusing to compare: stamps differ (%+v vs %+v)\n", a[0].Stamp, rf.Stamp)
			return 2
		}
	}
	spec, err := loadBenchmarkSpec()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	va, vb := metricValues(a), metricValues(b)
	keys := make([]string, 0, len(va))
	for k := range va {
		if _, both := vb[k]; both {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	bound := map[string]float64{}
	lower := map[string]bool{}
	for _, e := range spec.EndToEnd {
		bound[e.Name], lower[e.Name] = e.Bound, e.Better == "lower"
	}
	status := 0
	fmt.Fprintf(stdout, "%-14s %-28s %14s %14s %9s\n", "workload", "metric", "old median", "new median", "new/old")
	for _, k := range keys {
		w, name, _ := strings.Cut(k, "\t")
		ma, mb := median(va[k]), median(vb[k])
		verdict := ""
		if bd, e2e := bound[name]; e2e && ma != 0 {
			worse := mb/ma - 1
			if !lower[name] {
				worse = 1 - mb/ma
			}
			if worse > bd {
				verdict, status = fmt.Sprintf("  REGRESSION beyond %.0f%%", 100*bd), 1
			}
		}
		fmt.Fprintf(stdout, "%-14s %-28s %14.6g %14.6g %9.3f%s\n", w, name, ma, mb, mb/ma, verdict)
	}
	return status
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
