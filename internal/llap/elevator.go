package llap

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/orc"
	"repro/internal/vector"
)

// The I/O elevator (paper §5.1): LLAP separates I/O from execution with an
// asynchronous pool that reads, decompresses and *decodes* column data
// ahead of the consuming executor, and caches the decoded representation
// rather than raw bytes. This file provides the two halves:
//
//   - DecodedCache: a memory-bounded LRU of decoded vector.Vectors keyed
//     by (fileID, stripe, column) and charged by decoded size. Like the
//     chunk cache it is an MVCC view — DFS files are immutable and each
//     write generation gets a fresh FileID, so stale entries simply age
//     out rather than needing invalidation.
//   - Elevator: a fixed pool of decode goroutines fed by scanning workers,
//     which publish upcoming sarg-surviving stripes before needing them.

// vecKey addresses one decoded column of one file generation.
type vecKey struct {
	fileID uint64
	stripe int
	col    int
}

// DecodedCacheStats counts decoded-cache effectiveness.
type DecodedCacheStats = cache.Stats

// DecodedCache is the elevator's decoded-vector cache: an orc.VectorCache
// bounded by decoded bytes with LRU eviction. Cached vectors are shared
// between queries and are immutable by contract; eviction only drops the
// cache's reference, so a consumer holding an evicted vector keeps a valid
// value (eviction-during-fill is safe by construction).
type DecodedCache struct {
	*cache.Cache[vecKey, *vector.Vector]
}

// NewDecodedCache creates a decoded-vector cache with the given capacity
// in decoded bytes.
func NewDecodedCache(capacity int64) *DecodedCache {
	return &DecodedCache{cache.New[vecKey, *vector.Vector](cache.LRU, capacity)}
}

// VectorBytes estimates the resident size of a decoded vector, the unit
// the cache capacity is charged in.
func VectorBytes(v *vector.Vector) int64 {
	n := int64(48) // struct + slice headers
	n += int64(len(v.Nulls))
	n += 8 * int64(len(v.I64))
	n += 8 * int64(len(v.F64))
	if v.Str != nil {
		n += 16 * int64(len(v.Str))
		for _, s := range v.Str {
			n += int64(len(s))
		}
	}
	return n
}

// GetVector implements orc.VectorCache.
func (c *DecodedCache) GetVector(fileID uint64, stripe, col int) (*vector.Vector, bool) {
	return c.Get(vecKey{fileID, stripe, col})
}

// PeekVector implements orc.VectorPeeker: residency check without hit/miss
// accounting or LRU promotion, used by the prefetch path.
func (c *DecodedCache) PeekVector(fileID uint64, stripe, col int) bool {
	_, ok := c.Peek(vecKey{fileID, stripe, col})
	return ok
}

// PutVector implements orc.VectorCache.
func (c *DecodedCache) PutVector(fileID uint64, stripe, col int, v *vector.Vector) {
	c.Put(vecKey{fileID, stripe, col}, v, VectorBytes(v))
}

// QueryVectorView wraps the shared DecodedCache with per-query hit/miss
// counters so sessions can report LastDecodedCacheHits/Misses without
// disentangling the global totals. Peeks pass through uncounted.
type QueryVectorView struct {
	Cache  *DecodedCache
	Hits   atomic.Int64
	Misses atomic.Int64
}

// GetVector implements orc.VectorCache.
func (q *QueryVectorView) GetVector(fileID uint64, stripe, col int) (*vector.Vector, bool) {
	v, ok := q.Cache.GetVector(fileID, stripe, col)
	if ok {
		q.Hits.Add(1)
	} else {
		q.Misses.Add(1)
	}
	return v, ok
}

// PutVector implements orc.VectorCache.
func (q *QueryVectorView) PutVector(fileID uint64, stripe, col int, v *vector.Vector) {
	q.Cache.PutVector(fileID, stripe, col, v)
}

// PeekVector implements orc.VectorPeeker.
func (q *QueryVectorView) PeekVector(fileID uint64, stripe, col int) bool {
	return q.Cache.PeekVector(fileID, stripe, col)
}

// ElevatorStats counts elevator activity.
type ElevatorStats struct {
	Enqueued      int64 // requests accepted into the queue
	Decoded       int64 // stripes decoded by elevator workers
	Coalesced     int64 // requests joined onto an identical in-flight decode
	Dropped       int64 // requests rejected (full queue, byte cap)
	Abandoned     int64 // queued requests discarded by Close
	MaxDepth      int64 // high-water mark of queued requests
	InflightBytes int64 // current estimated bytes of queued + running work
}

// elevKey identifies one in-flight decode unit. The column-set fingerprint
// matters: two queries projecting different columns of the same stripe are
// different work — deduping them on (file, stripe) alone would leave the
// second projection undecoded.
type elevKey struct {
	fileID uint64
	stripe int
	colset string
}

// colsetKey fingerprints a projection order-insensitively.
func colsetKey(cols []int) string {
	cs := append([]int(nil), cols...)
	sort.Ints(cs)
	var b strings.Builder
	for i, c := range cs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(c))
	}
	return b.String()
}

type elevReq struct {
	r      *orc.Reader
	stripe int
	cols   []int
	est    int64
	key    elevKey
}

// flight is the single-flight record for one in-flight decode: every
// caller that joined it gets its done callback on completion (or on
// Close's abandonment), so per-query accounting always unwinds.
type flight struct {
	dones []func()
}

// Elevator is the per-daemon asynchronous decode pool. Scanning workers
// enqueue upcoming (file, stripe, projection) units; worker goroutines
// perform the DFS reads and column decodes ahead of the consumer and
// publish decoded vectors through the reader's vector cache. Requests are
// advisory: when the queue or the in-flight byte budget is full they are
// dropped and the consumer decodes synchronously as before, so the
// elevator can never change results — only timing.
type Elevator struct {
	reqs     chan elevReq
	quit     chan struct{}
	wg       sync.WaitGroup
	cap      int64 // in-flight decode estimate budget, bytes
	inflight atomic.Int64

	mu      sync.Mutex
	pending map[elevKey]*flight // single-flight: one decode per (file, stripe, colset)

	enqueued  atomic.Int64
	decoded   atomic.Int64
	coalesced atomic.Int64
	dropped   atomic.Int64
	abandoned atomic.Int64
	depth     atomic.Int64
	maxDepth  atomic.Int64
	closed    atomic.Bool
}

// NewElevator starts an elevator with the given worker count
// (hive.llap.io.threads) and in-flight byte budget; zero values pick
// defaults of 4 threads and 32 MiB.
func NewElevator(threads int, inflightBytes int64) *Elevator {
	if threads <= 0 {
		threads = 4
	}
	if inflightBytes <= 0 {
		inflightBytes = 32 << 20
	}
	e := &Elevator{
		reqs:    make(chan elevReq, 4*threads),
		quit:    make(chan struct{}),
		cap:     inflightBytes,
		pending: make(map[elevKey]*flight),
	}
	e.wg.Add(threads)
	for i := 0; i < threads; i++ {
		go e.worker()
	}
	return e
}

func (e *Elevator) worker() {
	defer e.wg.Done()
	for {
		select {
		case <-e.quit:
			return
		case req := <-e.reqs:
			e.depth.Add(-1)
			// Errors are swallowed: the consumer's synchronous read will
			// surface them with full context if they are real.
			_ = req.r.PrefetchStripe(req.stripe, req.cols)
			e.decoded.Add(1)
			e.finish(req)
		}
	}
}

func (e *Elevator) finish(req elevReq) {
	e.inflight.Add(-req.est)
	e.mu.Lock()
	fl := e.pending[req.key]
	delete(e.pending, req.key)
	e.mu.Unlock()
	if fl != nil {
		for _, done := range fl.dones {
			done()
		}
	}
}

// Prefetch implements orc.Prefetcher. A request identical to one already
// in flight — same file generation, stripe and column set — joins it
// (single-flight): the decode happens once, every joiner's done callback
// fires when it lands, and the call reports true. The request is dropped
// (returning false, done never called) when the elevator is saturated.
func (e *Elevator) Prefetch(r *orc.Reader, stripe int, cols []int, done func()) bool {
	if e.closed.Load() {
		return false
	}
	est := 2 * r.StripeEncodedBytes(stripe, cols) // encoded + decoded copies
	key := elevKey{r.FileID(), stripe, colsetKey(cols)}
	e.mu.Lock()
	if fl, dup := e.pending[key]; dup {
		if done != nil {
			fl.dones = append(fl.dones, done)
		}
		e.mu.Unlock()
		e.coalesced.Add(1)
		return true
	}
	if e.inflight.Load()+est > e.cap {
		e.mu.Unlock()
		e.dropped.Add(1)
		return false
	}
	// Register the flight and enqueue while still holding the lock: a
	// worker cannot finish (and unregister) the request before its flight
	// record exists, and no duplicate can slip between the two steps.
	fl := &flight{}
	if done != nil {
		fl.dones = append(fl.dones, done)
	}
	select {
	case e.reqs <- elevReq{r: r, stripe: stripe, cols: cols, est: est, key: key}:
		e.pending[key] = fl
		e.inflight.Add(est)
		e.mu.Unlock()
		e.enqueued.Add(1)
		d := e.depth.Add(1)
		for {
			m := e.maxDepth.Load()
			if d <= m || e.maxDepth.CompareAndSwap(m, d) {
				break
			}
		}
		return true
	default:
		e.mu.Unlock()
		e.dropped.Add(1)
		return false
	}
}

// Close stops the workers and abandons queued requests, invoking their
// done callbacks so callers' accounting is released.
func (e *Elevator) Close() {
	if !e.closed.CompareAndSwap(false, true) {
		return
	}
	close(e.quit)
	e.wg.Wait()
	for {
		select {
		case req := <-e.reqs:
			e.depth.Add(-1)
			e.abandoned.Add(1)
			e.finish(req)
		default:
			return
		}
	}
}

// Stats returns elevator counters.
func (e *Elevator) Stats() ElevatorStats {
	return ElevatorStats{
		Enqueued:      e.enqueued.Load(),
		Decoded:       e.decoded.Load(),
		Coalesced:     e.coalesced.Load(),
		Dropped:       e.dropped.Load(),
		Abandoned:     e.abandoned.Load(),
		MaxDepth:      e.maxDepth.Load(),
		InflightBytes: e.inflight.Load(),
	}
}
