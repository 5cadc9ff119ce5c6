// Command meshgen builds, inspects and exports UnSNAP meshes without
// running a transport solve. It reports the unstructured-mesh statistics
// that drive the sweep's parallelism (buckets per ordinate, bucket sizes,
// cyclic dependency structure) and can export the mesh, with its explicit
// connectivity, to JSON.
//
// The schedules come from the build's topology stage (build.Topologies),
// the lag counts and largest SCC from build.GlobalLagSets; meshgen
// integrates no element matrices and no DSA geometry.
//
// Usage:
//
//	meshgen -nx 8 -twist 0.001 stats
//	meshgen -nx 4 export > mesh.json
//	meshgen -nx 4 -twist 0.01 -order 2 check
//	meshgen -nx 6 -twist 0.35 -periods 2 -cyclic export > cyclic.json
//
// The -periods flag switches the twist profile to an oscillation
// (theta(z) = twist*sin(2 pi periods z/LZ)), the generator mode that
// produces genuinely cyclic upwind dependency graphs at modest distortion;
// -cyclic verifies the cycles actually exist for the chosen quadrature and
// fails loudly otherwise, so scripted pipelines can never silently bench
// an acyclic "cyclic" mesh.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"unsnap/internal/build"
	"unsnap/internal/fem"
	"unsnap/internal/mesh"
	"unsnap/internal/quadrature"
	"unsnap/internal/sweep"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "meshgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("meshgen", flag.ContinueOnError)
	nx := fs.Int("nx", 8, "elements in x")
	ny := fs.Int("ny", 0, "elements in y (default nx)")
	nz := fs.Int("nz", 0, "elements in z (default nx)")
	twist := fs.Float64("twist", 0.001, "mesh twist in radians")
	periods := fs.Float64("periods", 0, "oscillating-twist periods (0 = the paper's monotone ramp)")
	cyclic := fs.Bool("cyclic", false, "require cyclic upwind dependencies for at least one ordinate; fail if the mesh is acyclic")
	cycleOrder := fs.String("cycle-order", sweep.OrderElementIndex.String(), "within-SCC cut rule for the per-octant schedule stats: element-index or feedback-arc (the cycle summary always reports both side by side)")
	order := fs.Int("order", 1, "element order (for check/stats)")
	nang := fs.Int("nang", 4, "angles per octant (for schedule and cycle stats)")
	matOpt := fs.Int("mat_opt", 1, "material layout option")
	srcOpt := fs.Int("src_opt", 0, "source layout option")
	if err := fs.Parse(args); err != nil {
		return err
	}
	schedOrder, err := sweep.ParseCycleOrder(*cycleOrder)
	if err != nil {
		return err
	}
	cmd := "stats"
	if fs.NArg() > 0 {
		cmd = fs.Arg(0)
	}
	if *ny == 0 {
		*ny = *nx
	}
	if *nz == 0 {
		*nz = *nx
	}
	// One-line structured rejections before the generator can choke on
	// (or silently bake in) a malformed value.
	if *nx < 1 || *ny < 1 || *nz < 1 {
		return fmt.Errorf("grid %dx%dx%d invalid (need positive element counts)", *nx, *ny, *nz)
	}
	if math.IsNaN(*twist) || math.IsInf(*twist, 0) {
		return fmt.Errorf("-twist %v invalid (need a finite angle in radians)", *twist)
	}
	if math.IsNaN(*periods) || math.IsInf(*periods, 0) || *periods < 0 {
		return fmt.Errorf("-periods %v invalid (need a finite non-negative count)", *periods)
	}
	if *order < 1 {
		return fmt.Errorf("-order %d invalid (need a positive element order)", *order)
	}
	if *nang < 1 {
		return fmt.Errorf("-nang %d invalid (need at least one angle per octant)", *nang)
	}
	m, err := mesh.New(mesh.Config{
		NX: *nx, NY: *ny, NZ: *nz, LX: 1, LY: 1, LZ: 1,
		Twist: *twist, TwistPeriods: *periods,
		MatOpt: *matOpt, SrcOpt: *srcOpt,
	})
	if err != nil {
		return err
	}
	// -cyclic condenses the whole domain under the element-index rule;
	// the stats' cycle summary reuses that condensation.
	var elemIndex *build.LagSets
	if *cyclic {
		if elemIndex, err = requireCyclic(m, *order, *nang); err != nil {
			return err
		}
	}

	switch cmd {
	case "stats":
		return stats(m, *order, *nang, schedOrder, elemIndex)
	case "export":
		return m.WriteJSON(os.Stdout)
	case "check":
		return check(m, *order)
	default:
		return fmt.Errorf("unknown subcommand %q (stats|export|check)", cmd)
	}
}

// requireCyclic fails loudly when the requested twist does not actually
// produce a cyclic upwind graph for any ordinate of the quadrature. It
// returns the whole-domain lag sets it condensed (element-index rule).
func requireCyclic(m *mesh.Mesh, order, nang int) (*build.LagSets, error) {
	re, err := fem.NewRefElement(order)
	if err != nil {
		return nil, err
	}
	q, err := quadrature.NewSNAP(nang)
	if err != nil {
		return nil, err
	}
	ls, err := build.GlobalLagSets(m, re, q, sweep.OrderElementIndex, true)
	if err != nil {
		return nil, err
	}
	cyc, lagged := lagCounts(ls)
	if cyc == 0 {
		return nil, fmt.Errorf("-cyclic: twist %g (periods %g) yields an ACYCLIC upwind graph for all %d ordinates; raise -twist or -periods (e.g. -twist 0.35 -periods 2 on a 6^3 grid)",
			m.Twist, m.TwistPeriods, q.NumAngles())
	}
	fmt.Fprintf(os.Stderr, "meshgen: cyclic verified: %d/%d ordinates cyclic, %d lagged couplings, largest SCC %d elements\n",
		cyc, q.NumAngles(), lagged, ls.MaxComp)
	return ls, nil
}

// lagCounts counts the cyclic ordinates of a whole-domain condensation
// and their lagged couplings.
func lagCounts(ls *build.LagSets) (cyclicAngles, laggedEdges int) {
	for _, of := range ls.Of {
		if of != nil {
			cyclicAngles++
			laggedEdges += len(of)
		}
	}
	return cyclicAngles, laggedEdges
}

// stats prints the mesh, schedule and cycle statistics. elemIndex, when
// not nil, is the whole-domain condensation under the element-index rule
// already made for this mesh, order and quadrature; the cycle summary
// reuses it instead of condensing again.
func stats(m *mesh.Mesh, order, nang int, schedOrder sweep.CycleOrder, elemIndex *build.LagSets) error {
	q, err := quadrature.NewSNAP(nang)
	if err != nil {
		return err
	}
	re, err := fem.NewRefElement(order)
	if err != nil {
		return err
	}
	// Classified and condensed exactly as a solver with AllowCycles would,
	// under the requested -cycle-order.
	topos, _, err := build.Topologies(build.Spec{Mesh: m, Order: order, Quad: q, AllowCycles: true, CycleOrder: schedOrder}, re)
	if err != nil {
		return err
	}
	boundary := 0
	for e := range m.Elems {
		for f := 0; f < fem.NumFaces; f++ {
			if m.Elems[e].Faces[f].Neighbor < 0 {
				boundary++
			}
		}
	}
	vol, err := m.TotalVolume(re)
	if err != nil {
		return err
	}
	fmt.Printf("mesh: %d elements (%dx%dx%d), twist %g rad",
		m.NumElems(), m.NX, m.NY, m.NZ, m.Twist)
	if m.TwistPeriods > 0 {
		fmt.Printf(" oscillating over %g periods", m.TwistPeriods)
	}
	fmt.Println()
	fmt.Printf("  boundary faces %d, total volume %.6f\n", boundary, vol)
	fmt.Printf("  fingerprint %s\n", m.Fingerprint())
	fmt.Printf("  element order %d: %d nodes/element, %d DoF/group/angle\n",
		order, re.N, re.N*m.NumElems())

	// Schedule statistics per octant for the first angle of each octant.
	fmt.Printf("  sweep schedules (first angle of each octant, cycle-order %s):\n", schedOrder)
	for o := 0; o < 8; o++ {
		sched := topos[q.AngleIndex(o, 0)].Sched
		lag := ""
		if n := len(sched.Lagged); n > 0 {
			lag = fmt.Sprintf(", %d lagged couplings", n)
		}
		fmt.Printf("    octant %d: %d buckets, max %d elements, mean %.1f%s\n",
			o, len(sched.Buckets), sched.MaxBucket(), sched.AvgBucket(), lag)
	}
	// The cycle summary reports every cut rule side by side, so the lag
	// reduction of the feedback-arc strategy is visible without re-running.
	for i, co := range sweep.CycleOrders() {
		ls := elemIndex
		if co != sweep.OrderElementIndex || ls == nil {
			if ls, err = build.GlobalLagSets(m, re, q, co, true); err != nil {
				return err
			}
		}
		cyc, lagged := lagCounts(ls)
		if cyc == 0 {
			fmt.Printf("  cyclic: none (all %d ordinates acyclic)\n", q.NumAngles())
			break
		}
		if i == 0 {
			fmt.Printf("  cyclic: %d/%d ordinates, largest SCC %d elements (requires AllowCycles)\n",
				cyc, q.NumAngles(), ls.MaxComp)
		}
		fmt.Printf("    cycle-order %-14s %d lagged couplings\n", co.String()+":", lagged)
	}
	return nil
}

func check(m *mesh.Mesh, order int) error {
	if err := m.CheckConnectivity(); err != nil {
		return err
	}
	re, err := fem.NewRefElement(order)
	if err != nil {
		return err
	}
	if _, err := m.Match(re); err != nil {
		return err
	}
	if _, err := m.TotalVolume(re); err != nil {
		return err
	}
	fmt.Printf("mesh OK: connectivity reciprocal, faces conforming at order %d, no inverted elements\n", order)
	return nil
}
