// Fixture for the no-alias-escape analyzer over a generic cache: a
// miniature package named like the real one (the analyzer keys on package
// name).
package cache

type Cache[K comparable, V any] struct {
	vals map[K]V
	keys []K
}

// Get returns a cached value: a type parameter, not a slice or map, so it
// is not flagged here; its callers are checked instead.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	v, ok := c.vals[k]
	return v, ok
}

// Keys leaks the interior slice of a generic cache.
func (c *Cache[K, V]) Keys() []K {
	return c.keys // want "interior slice of cached state"
}

// All leaks the interior map through a local alias.
func (c *Cache[K, V]) All() map[K]V {
	m := c.vals
	return m // want "interior map of cached state"
}

// KeysCopy returns a fresh copy: allowed.
func (c *Cache[K, V]) KeysCopy() []K {
	return append([]K(nil), c.keys...)
}

// Bytes is a wrapper whose values are slices.
type Bytes struct {
	c *Cache[string, []byte]
}

// Lookup returns the cached slice itself: a value read out of the generic
// cache is cached state.
func (b *Bytes) Lookup(k string) []byte {
	v, _ := b.c.Get(k)
	return v // want "interior slice of cached state"
}

// Fresh returns a copy of the cached slice: allowed.
func (b *Bytes) Fresh(k string) []byte {
	v, _ := b.c.Get(k)
	return append([]byte(nil), v...)
}
