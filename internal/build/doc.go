// Package build is the problem-build layer: everything a solver derives
// from the mesh topology and the angular quadrature alone — the
// face-node matching, the per-element basis-pair matrices, the
// per-ordinate inflow classification with its deduplicated sweep
// schedules, cycle condensations and counter graphs, the DSA geometry
// and the element geometry classes — is computed here, once, into an
// immutable Artifact keyed by a canonical content fingerprint.
//
// Build runs its topology stage, Topologies, first: classification,
// schedules, condensations and counter graphs from the mesh, quadrature,
// External declarations and cycle handling alone, with no element matrix
// in hand. The classification is one rule (classify.go) reading
// fem.RefElement.FaceUnitNormal; GlobalLagSets classifies through it too.
//
// An Artifact holds topology and element matrices only. Nothing in it is
// a product of an ordinate with a matrix: the face blocks om·Fx + om·Fy +
// om·Fz and the local operators they enter are formed by the sweep
// kernels, and the one kind of local operator the solver keeps resident —
// LU factors — lives per solver in core's factor store
// (core/faccache.go), which reads the GeomClass ids built here as its
// sharing key.
//
// Splitting the build from the solve makes the expensive setup phase
// independently cacheable: a Cache (size-bounded, LRU by bytes) hands
// the same Artifact to every solver — and every rank of a distributed
// driver — asking for the same topology, so a hot mesh amortises its
// classification and condensation cost across solves instead of
// re-deriving it per solver instance. Mutable solve state (angular and
// scalar flux, sources, counters, the streamed-inflow slots) stays in
// core.Solver; nothing in an Artifact is ever written after Build
// returns, which is what makes sharing it across solvers and goroutines
// safe.
//
// # Contract
//
// The cache is content-addressed, not identity-addressed: two Specs that
// fingerprint equal describe the same topology. Every Spec input that
// shapes the product is data that joins the key — a partitioned rank's
// share of the whole-domain cycle condensation (Cut) included — so every
// Artifact carries its key and none bypasses the cache. A warm lookup
// returns the identical Artifact pointer and performs zero topology work
// — the process-wide Builds, Classifications, Condensations and
// AccelGeoms counters are the audit trail (Classifications and
// Condensations count GlobalLagSets' whole-mesh scans and condensations
// too), and the cache tests pin that a warm build moves none of them.
// Solves through a cached artifact match solves through a freshly built
// one bitwise.
//
// Concurrent misses on one key are single-flighted: exactly one build
// runs, every waiter shares its result (or its error; failures are not
// cached and the next caller retries).
//
// # Multi-tenancy
//
// GetOrBuildTenant charges each entry to the tenant whose lookup built
// it; later hits by other tenants share the artifact without moving the
// charge. A tenant's byte budget evicts only that tenant's own
// least-recently-used entries, so one tenant's topology churn cannot
// evict another's hot artifacts; the global budget still applies across
// all tenants and unwinds per-tenant accounting when it evicts.
// TenantStatsSnapshot exposes per-tenant hits, misses, evictions and
// residency (the solve service serves it at /v1/stats).
package build
