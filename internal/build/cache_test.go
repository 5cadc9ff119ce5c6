package build

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"unsnap/internal/fem"
	"unsnap/internal/mesh"
	"unsnap/internal/quadrature"
	"unsnap/internal/sweep"
)

type fakeSized int64

func (f fakeSized) SizeBytes() int64 { return int64(f) }

// TestCacheLRUEviction pins the byte-budget LRU contract: eviction is by
// bytes from the least recently used end, a lookup refreshes recency,
// and a single entry larger than the whole budget stays resident.
func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(100)
	get := func(key string, size int64) {
		t.Helper()
		if _, err := c.getOrBuild(key, "", 0, func() (sized, error) { return fakeSized(size), nil }); err != nil {
			t.Fatal(err)
		}
	}
	get("a", 40)
	get("b", 40)
	get("a", 40) // refresh a: LRU order is now b, a
	get("c", 40) // over budget: b (LRU) must go, not a
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 || st.Bytes != 80 {
		t.Fatalf("after eviction: %+v, want 1 eviction, 2 entries, 80 bytes", st)
	}
	hits := st.Hits
	get("a", 40) // must still be resident
	get("b", 40) // must have been evicted: rebuilds
	st = c.Stats()
	if st.Hits != hits+1 {
		t.Errorf("a was evicted instead of b (hits %d, want %d)", st.Hits, hits+1)
	}
	if st.Misses != 4 { // a, b, c cold + b rebuilt
		t.Errorf("misses %d, want 4", st.Misses)
	}

	// One entry bigger than the whole budget stays (evicting it would
	// just rebuild it forever).
	c = NewCache(10)
	get = func(key string, size int64) {
		t.Helper()
		if _, err := c.getOrBuild(key, "", 0, func() (sized, error) { return fakeSized(size), nil }); err != nil {
			t.Fatal(err)
		}
	}
	get("huge", 1000)
	if st := c.Stats(); st.Entries != 1 || st.Evictions != 0 {
		t.Fatalf("oversized entry handling: %+v, want it resident with no evictions", st)
	}
}

// TestCacheSingleflight pins the concurrent-miss contract: any number of
// goroutines asking for one missing key run exactly one build, and the
// waiters count as hits (they did no build work).
func TestCacheSingleflight(t *testing.T) {
	c := NewCache(0)
	var builds atomic.Int64
	release := make(chan struct{})
	const n = 8
	var wg sync.WaitGroup
	vals := make([]sized, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.getOrBuild("k", "", 0, func() (sized, error) {
				builds.Add(1)
				<-release // hold the build open so the others must join it
				return fakeSized(7), nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i] = v
		}(i)
	}
	close(release)
	wg.Wait()
	if got := builds.Load(); got != 1 {
		t.Fatalf("%d builds ran for one key, want 1", got)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != n-1 {
		t.Fatalf("stats %+v, want 1 miss and %d hits", st, n-1)
	}
	for i, v := range vals {
		if v != vals[0] {
			t.Fatalf("caller %d got a different value", i)
		}
	}
}

// TestCacheFailedBuildRetries pins that a failed build is not cached and
// does not wedge the key: the next caller builds again and can succeed.
func TestCacheFailedBuildRetries(t *testing.T) {
	c := NewCache(0)
	fail := true
	build := func() (sized, error) {
		if fail {
			return nil, fmt.Errorf("transient")
		}
		return fakeSized(1), nil
	}
	if _, err := c.getOrBuild("k", "", 0, build); err == nil {
		t.Fatal("first build should have failed")
	}
	fail = false
	if _, err := c.getOrBuild("k", "", 0, build); err != nil {
		t.Fatalf("retry after failed build: %v", err)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("stats %+v, want the retried value cached", st)
	}
}

// TestCacheTenantBudget pins the multi-tenant isolation contract: a
// tenant's byte budget evicts only that tenant's own LRU entries, other
// tenants' residency is untouched, and the per-tenant counters attribute
// hits, misses, bytes and evictions to the right identity.
func TestCacheTenantBudget(t *testing.T) {
	c := NewCache(0) // no global budget: only tenant budgets act
	get := func(tenant string, limit int64, key string, size int64) {
		t.Helper()
		if _, err := c.getOrBuild(key, tenant, limit, func() (sized, error) { return fakeSized(size), nil }); err != nil {
			t.Fatal(err)
		}
	}
	get("acme", 100, "a1", 40)
	get("acme", 100, "a2", 40)
	get("zeta", 100, "z1", 40)
	// Pushing acme over budget must drop acme's LRU entry (a1), never z1.
	get("acme", 100, "a3", 40)
	ts := c.TenantStatsSnapshot()
	if got := ts["acme"]; got.Evictions != 1 || got.Entries != 2 || got.Bytes != 80 || got.Misses != 3 {
		t.Fatalf("acme stats %+v, want 1 eviction, 2 entries, 80 bytes, 3 misses", got)
	}
	if got := ts["zeta"]; got.Evictions != 0 || got.Entries != 1 || got.Bytes != 40 {
		t.Fatalf("zeta stats %+v, want untouched residency", got)
	}
	hits := c.Stats().Hits
	get("zeta", 100, "z1", 40) // still resident
	if c.Stats().Hits != hits+1 {
		t.Fatal("zeta's entry was evicted by acme's budget")
	}
	get("acme", 100, "a1", 40) // evicted: rebuilds (and re-evicts acme's LRU, a2)
	if got := c.TenantStatsSnapshot()["acme"]; got.Misses != 4 || got.Evictions != 2 {
		t.Fatalf("acme after a1 rebuild: %+v, want 4 misses, 2 evictions", got)
	}

	// Cross-tenant sharing: a hit on another tenant's entry counts for
	// the reader but leaves the charge with the builder.
	get("zeta", 100, "a3", 40)
	ts = c.TenantStatsSnapshot()
	if got := ts["zeta"]; got.Hits != 2 || got.Bytes != 40 {
		t.Fatalf("zeta after shared hit: %+v, want 2 hits and unchanged bytes", got)
	}

	// A single entry over the tenant budget stays resident (the global
	// oversized rule, per tenant).
	get("big", 10, "huge", 1000)
	if got := c.TenantStatsSnapshot()["big"]; got.Entries != 1 || got.Evictions != 0 {
		t.Fatalf("oversized tenant entry: %+v, want it resident", got)
	}

	// The global budget still unwinds tenant accounting when it evicts.
	c2 := NewCache(50)
	gc := func(tenant, key string, size int64) {
		t.Helper()
		if _, err := c2.getOrBuild(key, tenant, 0, func() (sized, error) { return fakeSized(size), nil }); err != nil {
			t.Fatal(err)
		}
	}
	gc("acme", "g1", 40)
	gc("zeta", "g2", 40) // global eviction drops acme's g1
	ts = c2.TenantStatsSnapshot()
	if got := ts["acme"]; got.Entries != 0 || got.Bytes != 0 || got.Evictions != 1 {
		t.Fatalf("acme after global eviction: %+v, want zero residency and 1 eviction", got)
	}
}

func testSpec(t *testing.T) Spec {
	t.Helper()
	m, err := mesh.New(mesh.Config{NX: 3, NY: 3, NZ: 3, LX: 1, LY: 1, LZ: 1,
		Twist: 0.001, MatOpt: 1, SrcOpt: 0})
	if err != nil {
		t.Fatal(err)
	}
	q, err := quadrature.NewSNAP(2)
	if err != nil {
		t.Fatal(err)
	}
	return Spec{Mesh: m, Order: 1, Quad: q, Threads: 1}
}

// TestCacheWarmBuildDoesZeroWork is the artifact layer's core promise:
// the second build of the same topology through one cache returns the
// identical artifact and moves none of the work counters — no element
// matrices, no face classification, no condensation.
func TestCacheWarmBuildDoesZeroWork(t *testing.T) {
	c := NewCache(0)
	spec := testSpec(t)
	cold, err := c.GetOrBuild(spec)
	if err != nil {
		t.Fatal(err)
	}
	b0, cl0, co0 := Builds(), Classifications(), Condensations()
	warm, err := c.GetOrBuild(spec)
	if err != nil {
		t.Fatal(err)
	}
	if warm != cold {
		t.Fatal("warm build returned a different artifact")
	}
	if b, cl, co := Builds(), Classifications(), Condensations(); b != b0 || cl != cl0 || co != co0 {
		t.Fatalf("warm build moved work counters: builds %+d classifications %+d condensations %+d",
			b-b0, cl-cl0, co-co0)
	}
}

// TestSpecKeyPinned holds Spec.Key of specs without a Cut to recorded
// strings (a moved key cold-starts every cached artifact), and pins that
// a Cut's content — its lag sets' key and its global ids — joins the key
// and that a build carries the key it was built under.
func TestSpecKeyPinned(t *testing.T) {
	ext := []ExternalFace{{Elem: 0, Face: 0, Normal: [3]float64{-1, 0, 0}, Canonical: true},
		{Elem: 2, Face: 1, Normal: [3]float64{0.6, 0.8, 0}}}
	const base = "v1|mesh:m9d00427fd6c04eb2718e661c|o:1|q:qb6dfc318a586a707"
	for _, tc := range []struct {
		mod  func(*Spec)
		want string
	}{
		{func(*Spec) {}, base},
		{func(s *Spec) { s.AllowCycles = true }, base + "|cy:0"},
		{func(s *Spec) { s.AllowCycles, s.CycleOrder = true, sweep.OrderFeedbackArc }, base + "|cy:1"},
		{func(s *Spec) { s.External = ext }, base + "|ext:x22251b33ba3df00f"},
		{func(s *Spec) { s.AllowCycles, s.External = true, ext }, base + "|cy:0|ext:x22251b33ba3df00f"},
	} {
		s := testSpec(t)
		tc.mod(&s)
		if got := s.Key(); got != tc.want {
			t.Errorf("key %q, want %q", got, tc.want)
		}
	}

	spec := testSpec(t)
	spec.AllowCycles = true
	ids := make([]int, spec.Mesh.NumElems())
	for e := range ids {
		ids[e] = e
	}
	sets := &LagSets{Key: "lagsets|a", Of: make([]map[sweep.Edge]bool, spec.Quad.NumAngles())}
	keyOf := func(c *Cut) string {
		s := spec
		s.Cut = c
		return s.Key()
	}
	k := keyOf(&Cut{Sets: sets, Global: ids})
	if k == spec.Key() || k != keyOf(&Cut{Sets: sets, Global: append([]int(nil), ids...)}) {
		t.Fatalf("a cut's key is not a function of its content: %q", k)
	}
	shifted := append([]int(nil), ids...)
	shifted[0], shifted[1] = ids[1], ids[0]
	other := *sets
	other.Key = "lagsets|b"
	if keyOf(&Cut{Sets: sets, Global: shifted}) == k || keyOf(&Cut{Sets: &other, Global: ids}) == k {
		t.Fatal("cuts of different content share a key")
	}
	spec.Cut = &Cut{Sets: sets, Global: ids}
	art, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if art.Key != k || art.Compatible(&spec) != nil {
		t.Fatalf("artifact key %q, want %q", art.Key, k)
	}
}

// TestBuildSharesClassMatrices: on an axis-aligned box mesh (one geometry
// class) every element points at one matrix set, computed once, and the
// artifact's size counts it once; on a twisted mesh every element is a
// class of its own. Each shared set is bitwise what ComputeMatrices gives
// every element of its class.
func TestBuildSharesClassMatrices(t *testing.T) {
	for _, twist := range []float64{0, 0.2} {
		m, err := mesh.New(mesh.Config{NX: 4, NY: 2, NZ: 2, LX: 1, LY: 1, LZ: 1, Twist: twist})
		if err != nil {
			t.Fatal(err)
		}
		q, err := quadrature.NewSNAP(2)
		if err != nil {
			t.Fatal(err)
		}
		art, err := Build(Spec{Mesh: m, Order: 2, Quad: q, Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		sets := make(map[*fem.ElementMatrices]bool)
		classSet := make(map[int32]*fem.ElementMatrices)
		for e, em := range art.EM {
			sets[em] = true
			c := art.GeomClass[e]
			if classSet[c] == nil {
				classSet[c] = em
			}
			if classSet[c] != em {
				t.Fatalf("twist %v: element %d does not share its class's matrices", twist, e)
			}
			want, err := art.Re.ComputeMatrices(m.Elems[e].Geometry())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(em, want) {
				t.Fatalf("twist %v: element %d's shared matrices differ from its own", twist, e)
			}
		}
		if len(sets) != art.GeomClasses {
			t.Fatalf("twist %v: %d matrix sets for %d classes", twist, len(sets), art.GeomClasses)
		}
		if twist == 0 && art.GeomClasses != 1 {
			t.Fatalf("box mesh: %d geometry classes, want 1", art.GeomClasses)
		}
		if twist != 0 && art.GeomClasses != len(art.EM) {
			t.Fatalf("twisted mesh: %d geometry classes for %d elements", art.GeomClasses, len(art.EM))
		}
		em := art.EM[0]
		one := int64(len(em.Mass)+len(em.Grad[0])*3) * 8
		for f := range em.Face {
			one += int64(len(em.Face[f][0])*3) * 8
		}
		// The rest of a 16-element artifact is far below one order-2
		// matrix set (35 kB): counted once, the set leaves the total
		// under two.
		if got := art.SizeBytes(); twist == 0 && got >= 2*one {
			t.Fatalf("box mesh artifact counts %d B, one matrix set is %d B: the shared set is counted more than once", got, one)
		}
	}
}
