package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"strings"

	"unsnap"
	"unsnap/internal/serve"
)

// The frozen workload sizes. Each was tuned on the 2-CPU reference box
// to the per-operation time in its comment (see README.md, "Sizing");
// changing one changes what every later measurement means, so a change
// here is a benchmark change, never part of a change that claims a gain.
const (
	// jobsPerClient is the length of each client's pre-generated job
	// sequence; a client that runs past it wraps around.
	jobsPerClient = 2048
	// hashedJobs is how many jobs of each client sequence join the
	// input hash (the window never consumes more on the reference box).
	hashedJobs = 512
	// warmupJobs is the fixed warm-up a service set-up runs to
	// completion before it counts as set up.
	warmupJobs = 8
	// coldSampleEvery is the 1-in-N share of serve_cold jobs that are
	// re-solved directly after the window.
	coldSampleEvery = 8
)

// workloadInfo names a workload and records why it exists.
type workloadInfo struct {
	name string
	why  string
}

var workloads = []workloadInfo{
	{"solve_lo", "order-1 twisted 8^3, 8 groups: n=8 systems, microsecond tasks; assembly and engine scheduling carry the time, dense-solve changes do not show"},
	{"solve_ho", "order-3 twisted 4^3: n=64 factorisations dominate, every element its own geometry class and the factor cache over budget; la changes show, scheduling does not"},
	{"converge_dist", "1x2 pipelined ranks, cyclic 10-mfp 6^3 mesh, c=0.95, DSA: the only workload where comm, cycle condensation, accel and the inner count carry the time"},
	{"serve_hot", "closed loop of P clients on 4 axis-aligned specs: build-cache hit share near 1; decode, solver allocation, factor-cache fill, cached-path sweeps and HTTP carry a job"},
	{"serve_cold", "same loop, a unique twist per job: a build miss and evictions on every job, so artifact build and cache insert/evict carry the largest share a job allows"},
}

// isService reports whether the workload is a service traffic mix.
func isService(name string) bool { return strings.HasPrefix(name, "serve_") }

func findWorkload(name string) (workloadInfo, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadInfo{}, false
}

// libCase is one library solve configuration: a problem, its options and
// the rank grid ({1,1} is the single-domain solver).
type libCase struct {
	Problem unsnap.Problem
	Options unsnap.Options
	Grid    [2]int
	// BalanceTol is the largest accepted |source - absorption - leakage|
	// / source of a converged solve; it follows the workload's epsi.
	BalanceTol float64
}

func (c libCase) distributed() bool { return c.Grid[0]*c.Grid[1] > 1 }

// job is one service submission.
type job struct {
	Tenant string      `json:"tenant"`
	Spec   unsnap.Spec `json:"spec"`
}

// body is the POST /v1/jobs payload of the job.
func (j job) body() []byte {
	b, err := json.Marshal(struct {
		Tenant string `json:"tenant,omitempty"`
		unsnap.Spec
	}{j.Tenant, j.Spec})
	if err != nil {
		panic(err) // a Spec of plain numbers and strings always marshals
	}
	return b
}

// key identifies the job's numerical content (tenant excluded): equal
// keys must produce bitwise-equal results.
func (j job) key() string {
	b, err := json.Marshal(j.Spec)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// serveCase is one service traffic mix.
type serveCase struct {
	Config  serve.Config
	Warmup  []job
	Clients [][]job // one closed-loop sequence per client
	// hot reports that equal-key jobs recur, so every result is checked
	// bitwise against a direct solve of its key.
	hot bool
}

// rngFor derives the workload's generator from the seed; the stream is a
// pure function of (seed, workload name).
func rngFor(seed uint64, name string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// jitter returns base scaled by a seeded factor in [1-rel, 1+rel).
func jitter(r *rand.Rand, base, rel float64) float64 {
	return base * (1 + rel*(2*r.Float64()-1))
}

// makeLibCase generates the library workload's inputs. The seed moves
// the twist by a few percent: every seed is a fresh mesh fingerprint, the
// amount of work is the same.
func makeLibCase(name string, seed uint64, p int, tiny bool) libCase {
	r := rngFor(seed, name)
	switch name {
	case "solve_lo":
		c := libCase{
			Problem: unsnap.Problem{
				NX: 8, NY: 8, NZ: 8, LX: 1, LY: 1, LZ: 1,
				Twist:  jitter(r, 0.001, 0.05),
				MatOpt: unsnap.MatCentre, SrcOpt: unsnap.SrcEverywhere,
				Order: 1, AnglesPerOctant: 4, Groups: 8,
			},
			Options:    unsnap.Options{Threads: p, Epsi: 1e-5, MaxInners: 50, MaxOuters: 50},
			Grid:       [2]int{1, 1},
			BalanceTol: 1e-4,
		}
		if tiny {
			c.Problem.NX, c.Problem.NY, c.Problem.NZ = 3, 3, 3
			c.Problem.AnglesPerOctant, c.Problem.Groups = 1, 2
		}
		return c
	case "solve_ho":
		c := libCase{
			Problem: unsnap.Problem{
				NX: 4, NY: 4, NZ: 4, LX: 1, LY: 1, LZ: 1,
				Twist:  jitter(r, 0.001, 0.05),
				MatOpt: unsnap.MatCentre, SrcOpt: unsnap.SrcEverywhere,
				Order: 3, AnglesPerOctant: 2, Groups: 4,
			},
			Options:    unsnap.Options{Threads: p, Epsi: 1e-2, MaxInners: 50, MaxOuters: 50},
			Grid:       [2]int{1, 1},
			BalanceTol: 1e-3,
		}
		if tiny {
			c.Problem.NX, c.Problem.NY, c.Problem.NZ = 2, 2, 2
			c.Problem.AnglesPerOctant, c.Problem.Groups = 1, 1
		}
		return c
	case "converge_dist":
		c := libCase{
			Problem: unsnap.Problem{
				NX: 6, NY: 6, NZ: 6, LX: 10, LY: 10, LZ: 10,
				Twist: jitter(r, 0.35, 0.01), TwistPeriods: 2,
				MatOpt: unsnap.MatCentre, SrcOpt: unsnap.SrcEverywhere,
				Order: 1, AnglesPerOctant: 4, Groups: 1,
				ScatRatio: 0.95,
			},
			Options: unsnap.Options{
				Threads: max(1, p/2), Epsi: 1e-6, MaxInners: 400, MaxOuters: 10,
				Protocol:    unsnap.CommPipelined,
				AllowCycles: true, CycleOrder: unsnap.OrderFeedbackArc,
				Accelerate: unsnap.AccelDSA,
			},
			Grid:       [2]int{1, 2},
			BalanceTol: 1e-4,
		}
		if tiny {
			c.Problem.NX, c.Problem.NY, c.Problem.NZ = 4, 4, 4
			c.Problem.AnglesPerOctant, c.Problem.Groups = 1, 1
			c.Options.Epsi = 1e-4
		}
		return c
	}
	panic("not a library workload: " + name)
}

// hotPool is the four axis-aligned specs serve_hot draws from. L=1 over 4
// or 8 cells gives power-of-two spacing, so every element's extents are
// bitwise equal and the mesh is a single geometry class.
func hotPool(tiny bool) []unsnap.Problem {
	base := unsnap.Problem{
		LX: 1, LY: 1, LZ: 1,
		MatOpt: unsnap.MatCentre, SrcOpt: unsnap.SrcEverywhere,
	}
	// The angle counts even out the four specs' solve times.
	shapes := []struct{ n, order, angles int }{{4, 1, 8}, {4, 2, 2}, {2, 3, 4}, {8, 1, 1}}
	if tiny {
		shapes = []struct{ n, order, angles int }{{2, 1, 1}, {2, 2, 1}, {2, 3, 1}, {4, 1, 1}}
	}
	pool := make([]unsnap.Problem, len(shapes))
	for i, s := range shapes {
		p := base
		p.NX, p.NY, p.NZ, p.Order, p.AnglesPerOctant = s.n, s.n, s.n, s.order, s.angles
		pool[i] = p
	}
	return pool
}

var tenants = []string{"alpha", "beta", "gamma"}

// makeServeCase generates the service workload's traffic.
func makeServeCase(name string, seed uint64, p int, tiny bool) serveCase {
	r := rngFor(seed, name)
	sc := serveCase{Clients: make([][]job, p), hot: name == "serve_hot"}
	// block is one round of window jobs and warm the i-th warm-up job.
	// The amount of work is the same for every seed, so that runs with
	// different seeds measure the same thing: a block holds every kind of
	// job once and the seed moves only their order, tenants and twists;
	// the warm-up, which is the service's set-up, is a fixed list of kinds.
	var block func() []job
	var warm func(i int) job
	switch name {
	case "serve_hot":
		// The cache holds the whole pool: unbounded.
		sc.Config = serve.Config{MaxConcurrent: p}
		pool := hotPool(tiny)
		ratios := []float64{0, 0.5, 0.8}
		groups := []int{2, 4}
		hotJob := func(pr unsnap.Problem, ratio float64, g int) job {
			pr.ScatRatio, pr.Groups = ratio, g
			return job{
				Tenant: tenants[r.IntN(len(tenants))],
				Spec: unsnap.Spec{Problem: pr, Options: unsnap.SpecOptions{
					Threads: 1, Epsi: 1e-4, MaxInners: 50, MaxOuters: 50,
				}},
			}
		}
		block = func() []job {
			var b []job
			for _, pr := range pool {
				for _, ratio := range ratios {
					for _, g := range groups {
						b = append(b, hotJob(pr, ratio, g))
					}
				}
			}
			return b
		}
		// The warm-up touches every pool spec twice, so the first is the
		// build and the second the hit.
		warm = func(i int) job {
			return hotJob(pool[i%len(pool)], ratios[i%len(ratios)], groups[i/len(pool)%len(groups)])
		}
	case "serve_cold":
		// The global budget holds about four artifacts and a tenant's
		// about two, so both eviction paths run all the time.
		sc.Config = serve.Config{MaxConcurrent: p, CacheBytes: 4 * coldArtifactBytes, TenantBytes: 2 * coldArtifactBytes}
		// Half the jobs are 5^3, a quarter each 4^3 and 6^3: the median
		// job is a 5^3 one.
		sizes, ang := []int{4, 5, 5, 6}, 2
		if tiny {
			sizes, ang = []int{2, 3}, 1
		}
		coldJob := func(n int) job {
			return job{
				Tenant: tenants[r.IntN(len(tenants))],
				Spec: unsnap.Spec{
					Problem: unsnap.Problem{
						NX: n, NY: n, NZ: n, LX: 1, LY: 1, LZ: 1,
						// A unique twist is a unique mesh fingerprint.
						Twist:  0.0005 + 0.001*r.Float64(),
						MatOpt: unsnap.MatCentre, SrcOpt: unsnap.SrcEverywhere,
						Order: 2, AnglesPerOctant: ang, Groups: 1,
					},
					Options: unsnap.SpecOptions{Threads: 1, Epsi: 1e-2, MaxInners: 50, MaxOuters: 50},
				},
			}
		}
		block = func() []job {
			var b []job
			for _, n := range sizes {
				b = append(b, coldJob(n))
			}
			return b
		}
		warm = func(i int) job { return coldJob(sizes[i%len(sizes)]) }
	default:
		panic("not a service workload: " + name)
	}
	for i := 0; i < warmupJobs; i++ {
		sc.Warmup = append(sc.Warmup, warm(i))
	}
	n := jobsPerClient
	if tiny {
		n = 64
	}
	for c := range sc.Clients {
		for len(sc.Clients[c]) < n {
			b := block()
			r.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
			sc.Clients[c] = append(sc.Clients[c], b...)
		}
	}
	return sc
}

// coldArtifactBytes is the measured size of the median serve_cold
// artifact (5^3, order 2, 2 angles per octant: 11.7 MB).
const coldArtifactBytes = 12 << 20

// inputHash is the sha256 of the generated inputs, printed with every
// result so two runs can be shown to have measured the same thing.
func inputHash(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b))
}

// hash covers a library case's problem, serialisable options, protocol
// and rank grid.
func (c libCase) hash() string {
	return inputHash(struct {
		Spec unsnap.Spec
		Grid [2]int
		Prot string
	}{unsnap.SpecOf(c.Problem, c.Options), c.Grid, c.Options.Protocol.String()})
}

// hash covers the warm-up and the leading hashedJobs of every client.
func (sc serveCase) hash() string {
	head := make([][]job, len(sc.Clients))
	for i, seq := range sc.Clients {
		head[i] = seq[:min(hashedJobs, len(seq))]
	}
	return inputHash(struct {
		Warmup  []job
		Clients [][]job
	}{sc.Warmup, head})
}
