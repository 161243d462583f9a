// Package plancache implements HS2's compiled-plan cache (paper §4.3): the
// optimized logical plan of a parameterized statement is stored once per
// normalized digest and reused for every literal variant, so the serving
// hot path skips parsing, analysis and optimization entirely. Entries are
// keyed on (database, normalized digest, metastore schema version,
// plan-affecting configuration fingerprint): any DDL or planner-relevant
// SET invalidates by changing the key, without explicit invalidation
// traffic. The cache evicts the least recently used template.
package plancache

import (
	"repro/internal/cache"
	"repro/internal/plan"
	"repro/internal/types"
)

// Key identifies one cached plan template.
type Key struct {
	DB     string // current database at compile time
	Digest string // normalized statement digest (literals hoisted)
	Schema int64  // metastore schema version at compile time
	Conf   string // fingerprint of plan-affecting session configuration
}

// Entry is a compiled plan template: an optimized logical plan whose
// literals are plan.Param placeholders. Callers must never execute Rel
// directly — plan.BindParams stamps out a private deep copy per run.
type Entry struct {
	Rel           plan.Rel
	Columns       []string  // output column names
	ParamTypes    []types.T // declared type of each hoisted parameter
	Deterministic bool      // false disables result caching for the statement
}

// Cache is one HS2 instance's plan cache, shared by all sessions.
type Cache struct {
	noCopy noCopy
	lru    *cache.Cache[Key, *Entry]
}

// noCopy makes `go vet` (copylocks) flag by-value copies of Cache: the
// entries are shared mutable state behind a pointer, so a copied handle
// silently aliases the original instead of being independent.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// New creates a plan cache bounded to maxEntries templates.
func New(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = 128
	}
	return &Cache{lru: cache.New[Key, *Entry](cache.LRU, int64(maxEntries))}
}

// Get returns the cached template for k, or nil.
func (c *Cache) Get(k Key) *Entry {
	e, _ := c.lru.Get(k)
	return e
}

// Put stores a template. Replacing an existing key does not evict; a new
// key evicts the least-recently-used template when full.
func (c *Cache) Put(k Key, e *Entry) { c.lru.Put(k, e, 1) }

// Stats returns hit/miss counters.
func (c *Cache) Stats() (hits, misses int64) {
	st := c.lru.Stats()
	return st.Hits, st.Misses
}

// Len reports the number of cached templates (for tests).
func (c *Cache) Len() int { return c.lru.Stats().Entries }
