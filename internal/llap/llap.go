// Package llap implements Live Long and Process (paper §5.1): persistent
// multi-threaded query executors and a multi-tenant in-memory cache.
//
//   - The data cache is addressed by (FileID, stripe, column) — the
//     row-group/column-group chunk addressing of paper Figure 5 — and uses
//     an LRFU (Least Recently/Frequently Used) eviction policy tuned for
//     analytic scan patterns. FileID-based addressing makes the cache an
//     MVCC view: ACID controls visibility at the file level, so new data
//     never invalidates cached chunks of immutable files.
//   - The metadata cache keeps parsed file footers so planning and stripe
//     selection avoid re-reading file tails.
//   - Daemons provide a fixed pool of persistent executors; query
//     fragments borrow executors without container start-up cost.
package llap

import (
	"strings"
	"sync"

	"repro/internal/cache"
	"repro/internal/dfs"
	"repro/internal/orc"
)

// chunkKey addresses one column chunk of one file generation.
type chunkKey struct {
	fileID uint64
	stripe int
	col    int
	off    int64
}

// CacheStats counts cache effectiveness.
type CacheStats = cache.Stats

// Cache is the LLAP data cache: an orc.ChunkReader that fills itself on
// miss and serves immutable chunks on hit. It is charged in chunk bytes
// and evicts by LRFU.
type Cache struct {
	fs *dfs.FS
	*cache.Cache[chunkKey, []byte]
}

// NewCache creates a cache with the given capacity in bytes.
func NewCache(fs *dfs.FS, capacity int64) *Cache {
	return &Cache{fs: fs, Cache: cache.New[chunkKey, []byte](cache.LRFU, capacity)}
}

// ReadChunk implements orc.ChunkReader with caching.
func (c *Cache) ReadChunk(path string, fileID uint64, stripe, col int, off, length int64) ([]byte, error) {
	key := chunkKey{fileID: fileID, stripe: stripe, col: col, off: off}
	if data, ok := c.Get(key); ok {
		// Decoders treat encoded chunks as immutable; copying here would
		// tax every hit to defend against a write that never happens (the
		// -tags stress deep-freeze build verifies the contract).
		//lint:ignore no-alias-escape encoded chunks are immutable by contract; per-hit copies would defeat the cache
		return data, nil
	}
	data, err := c.fs.ReadAt(path, off, length)
	if err != nil {
		return nil, err
	}
	c.Put(key, data, int64(len(data)))
	return data, nil
}

// MetadataCache keeps parsed ORC readers (file footers, stripe statistics)
// keyed by path and validated by FileID, so repeated scans skip footer
// reads entirely — including for files whose data was never cached
// (paper §5.1: metadata is cached even for data that was never in cache).
// Capacity is an entry count with LRU eviction: footers are small and
// uniform, so recency matters more than byte-accurate charging here.
type MetadataCache struct {
	*cache.Cache[string, *orc.Reader]
}

// DefaultMetadataCapacity bounds the footer cache when no explicit size is
// given; at a few KB per parsed footer this stays well under a megabyte.
const DefaultMetadataCapacity = 1024

// MetaStats counts metadata-cache effectiveness, reported alongside
// CacheStats; UsedBytes equals Entries, one unit per footer.
type MetaStats = cache.Stats

// NewMetadataCache returns an empty metadata cache with the default
// capacity.
func NewMetadataCache() *MetadataCache { return NewMetadataCacheSize(DefaultMetadataCapacity) }

// NewMetadataCacheSize returns an empty metadata cache holding at most
// capacity parsed footers.
func NewMetadataCacheSize(capacity int) *MetadataCache {
	if capacity <= 0 {
		capacity = DefaultMetadataCapacity
	}
	return &MetadataCache{cache.New[string, *orc.Reader](cache.LRU, int64(capacity))}
}

// Reader returns a cached ORC reader for the file, reopening when the file
// generation changed. The returned reader is shared across queries; callers
// that need query-local cache wiring must use orc.Reader.WithSources rather
// than mutating it.
func (m *MetadataCache) Reader(fs *dfs.FS, path string) (*orc.Reader, error) {
	st, err := fs.Stat(path)
	if err != nil {
		return nil, err
	}
	// A reader of an older generation is stale: it is dropped and refilled.
	if r, ok := m.GetValid(path, func(r *orc.Reader) bool { return r.FileID() == st.FileID }); ok {
		return r, nil
	}
	r, err := orc.NewReader(fs, path)
	if err != nil {
		return nil, err
	}
	m.Put(path, r, 1)
	return r, nil
}

// Invalidate drops the cached footer for a path, e.g. after the path was
// overwritten or removed outside the FileID-versioned write path.
func (m *MetadataCache) Invalidate(path string) { m.Remove(path) }

// InvalidatePrefix drops every cached footer under a path prefix, used when
// a table or partition directory is dropped or truncated.
func (m *MetadataCache) InvalidatePrefix(prefix string) {
	m.RemoveIf(func(path string, _ *orc.Reader) bool { return strings.HasPrefix(path, prefix) })
}

// Hits reports metadata cache hits (for tests).
func (m *MetadataCache) Hits() int64 { return m.Stats().Hits }

// Daemons is the pool of persistent executors. Executors are acquired per
// query fragment; there is no per-task start-up cost, unlike YARN
// containers.
type Daemons struct {
	mu      sync.Mutex
	freed   *sync.Cond // signalled when executors are released
	free    int
	total   int
	waiting int // Acquire calls blocked on freed
}

// NewDaemons starts a pool with the given total executor count.
func NewDaemons(executors int) *Daemons {
	d := &Daemons{free: executors, total: executors}
	d.freed = sync.NewCond(&d.mu)
	return d
}

// Acquire takes n executors, blocking until all n are free at once; the
// returned function releases them. A blocked caller holds none, so two
// callers that each need most of the pool cannot deadlock holding parts
// of it.
func (d *Daemons) Acquire(n int) (release func()) {
	n = min(n, d.total)
	d.mu.Lock()
	defer d.mu.Unlock()
	for d.free < n {
		d.waiting++
		d.freed.Wait()
		d.waiting--
	}
	d.free -= n
	return func() { d.release(n) }
}

// TryAcquire takes n executors without blocking.
func (d *Daemons) TryAcquire(n int) (release func(), ok bool) {
	n = min(n, d.total)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.free < n {
		return nil, false
	}
	d.free -= n
	return func() { d.release(n) }, true
}

func (d *Daemons) release(n int) {
	d.mu.Lock()
	d.free += n
	d.mu.Unlock()
	d.freed.Broadcast()
}

// Executors returns the pool size.
func (d *Daemons) Executors() int { return d.total }
