package build

import (
	"container/list"
	"sync"
)

// sized is anything the cache can account by bytes: build Artifacts and
// the distributed driver's LagSets share one keyspace and one budget.
type sized interface{ SizeBytes() int64 }

// CacheStats is a point-in-time snapshot of a Cache's counters.
type CacheStats struct {
	// Hits counts lookups served from a resident entry, including
	// callers that joined an in-flight build of the same key.
	Hits int64
	// Misses counts lookups that had to run the build.
	Misses int64
	// Evictions counts entries dropped to fit the byte budget (global or
	// per-tenant).
	Evictions int64
	// Entries and Bytes describe the current residency.
	Entries int
	Bytes   int64
}

// TenantStats is a per-tenant slice of a Cache's accounting: the tenant's
// lookup counters and the residency charged to it. An entry is charged to
// the tenant whose lookup built it; later hits by other tenants share the
// artifact without moving its charge.
type TenantStats struct {
	Hits int64
	// Misses counts the tenant's lookups that ran a build (each one
	// charges the built entry's bytes to this tenant).
	Misses int64
	// Evictions counts entries charged to this tenant that were dropped —
	// by the tenant's own budget or by the global one.
	Evictions int64
	// Entries and Bytes describe the residency currently charged to the
	// tenant.
	Entries int
	Bytes   int64
}

// Cache is a size-bounded, content-addressed artifact cache: least
// recently used entries are evicted (by byte budget, not count) and
// concurrent requests for one missing key run a single build that all
// waiters share. Safe for concurrent use; one Cache is meant to be
// shared by every solver and every rank that might see the same mesh.
//
// Lookups can optionally carry a tenant identity (GetOrBuildTenant): the
// cache then tracks per-tenant hit/miss/byte counters and enforces a
// per-tenant byte budget by evicting the over-budget tenant's own LRU
// entries — the isolation mechanism a multi-tenant solve service needs so
// one tenant's topology churn cannot flush another tenant's hot entries.
type Cache struct {
	mu      sync.Mutex
	limit   int64
	bytes   int64
	ll      *list.List // front = most recently used
	entries map[string]*list.Element
	pending map[string]*pendingBuild
	tenants map[string]*TenantStats

	hits, misses, evictions int64
}

type cacheEntry struct {
	key string
	val sized
	// tenant is the identity the entry's bytes are charged to ("" for
	// unattributed lookups through GetOrBuild).
	tenant string
}

type pendingBuild struct {
	done chan struct{}
	val  sized
	err  error
}

// NewCache returns a cache bounded at limitBytes of artifact payload
// (limitBytes <= 0 means unbounded).
func NewCache(limitBytes int64) *Cache {
	return &Cache{
		limit:   limitBytes,
		ll:      list.New(),
		entries: make(map[string]*list.Element),
		pending: make(map[string]*pendingBuild),
		tenants: make(map[string]*TenantStats),
	}
}

// GetOrBuild returns the cached artifact for spec, building and
// inserting it on a miss.
func (c *Cache) GetOrBuild(spec Spec) (*Artifact, error) {
	return c.GetOrBuildTenant("", 0, spec)
}

// GetOrBuildTenant is GetOrBuild with a tenant identity: the lookup's
// hit/miss moves the tenant's counters, a build charges the new entry's
// bytes to the tenant, and tenantLimit > 0 bounds the tenant's total
// resident bytes by evicting its own least-recently-used entries (other
// tenants' entries are never touched by the per-tenant budget; the
// global budget still applies to everyone). An empty tenant with zero
// limit is exactly GetOrBuild.
func (c *Cache) GetOrBuildTenant(tenant string, tenantLimit int64, spec Spec) (*Artifact, error) {
	if c == nil {
		return Build(spec)
	}
	v, err := c.getOrBuild(spec.Key(), tenant, tenantLimit, func() (sized, error) { return Build(spec) })
	if err != nil {
		return nil, err
	}
	return v.(*Artifact), nil
}

// tenantStatsLocked returns the named tenant's mutable counters, creating
// them on first sight. The empty tenant is never materialised.
func (c *Cache) tenantStatsLocked(tenant string) *TenantStats {
	ts := c.tenants[tenant]
	if ts == nil {
		ts = &TenantStats{}
		c.tenants[tenant] = ts
	}
	return ts
}

// getOrBuild is the generic lookup: a resident entry is a hit, a missing
// key runs build exactly once no matter how many goroutines ask for it
// concurrently (waiters count as hits — they did no work). Failed builds
// are not cached.
func (c *Cache) getOrBuild(key, tenant string, tenantLimit int64, build func() (sized, error)) (sized, error) {
	for {
		c.mu.Lock()
		if el, ok := c.entries[key]; ok {
			c.ll.MoveToFront(el)
			c.hits++
			if tenant != "" {
				c.tenantStatsLocked(tenant).Hits++
			}
			v := el.Value.(*cacheEntry).val
			c.mu.Unlock()
			return v, nil
		}
		if p, ok := c.pending[key]; ok {
			c.hits++
			if tenant != "" {
				c.tenantStatsLocked(tenant).Hits++
			}
			c.mu.Unlock()
			<-p.done
			if p.err == nil {
				return p.val, nil
			}
			// The build we joined failed; retry from the top (another
			// caller may have since succeeded, or we run it ourselves).
			c.mu.Lock()
			c.hits--
			if tenant != "" {
				c.tenantStatsLocked(tenant).Hits--
			}
			c.mu.Unlock()
			continue
		}
		p := &pendingBuild{done: make(chan struct{})}
		c.pending[key] = p
		c.misses++
		if tenant != "" {
			c.tenantStatsLocked(tenant).Misses++
		}
		c.mu.Unlock()

		p.val, p.err = build()
		c.mu.Lock()
		delete(c.pending, key)
		if p.err == nil {
			c.insertLocked(key, tenant, tenantLimit, p.val)
		}
		c.mu.Unlock()
		close(p.done)
		return p.val, p.err
	}
}

// insertLocked adds the entry at the MRU position, charges it to the
// tenant, and evicts from the LRU end until both the tenant's and the
// global budget hold. A single entry larger than the whole budget stays
// resident — evicting it would just rebuild it forever.
func (c *Cache) insertLocked(key, tenant string, tenantLimit int64, val sized) {
	el := c.ll.PushFront(&cacheEntry{key: key, val: val, tenant: tenant})
	c.entries[key] = el
	c.bytes += val.SizeBytes()
	if tenant != "" {
		ts := c.tenantStatsLocked(tenant)
		ts.Entries++
		ts.Bytes += val.SizeBytes()
	}
	// Per-tenant budget first: walk the LRU end, dropping only this
	// tenant's entries, never the one just inserted.
	if tenant != "" && tenantLimit > 0 {
		ts := c.tenantStatsLocked(tenant)
		for e := c.ll.Back(); e != nil && ts.Bytes > tenantLimit && e != el; {
			prev := e.Prev()
			if e.Value.(*cacheEntry).tenant == tenant {
				c.removeLocked(e)
			}
			e = prev
		}
	}
	if c.limit <= 0 {
		return
	}
	for c.bytes > c.limit && c.ll.Len() > 1 {
		c.removeLocked(c.ll.Back())
	}
}

// removeLocked evicts one resident entry, unwinding both the global and
// the owning tenant's accounting.
func (c *Cache) removeLocked(el *list.Element) {
	ent := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.entries, ent.key)
	c.bytes -= ent.val.SizeBytes()
	c.evictions++
	if ent.tenant != "" {
		ts := c.tenantStatsLocked(ent.tenant)
		ts.Entries--
		ts.Bytes -= ent.val.SizeBytes()
		ts.Evictions++
	}
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   c.ll.Len(),
		Bytes:     c.bytes,
	}
}

// TenantStatsSnapshot returns a copy of every tenant's counters, keyed by
// tenant name. Tenants appear after their first attributed lookup.
func (c *Cache) TenantStatsSnapshot() map[string]TenantStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]TenantStats, len(c.tenants))
	for name, ts := range c.tenants {
		out[name] = *ts
	}
	return out
}
