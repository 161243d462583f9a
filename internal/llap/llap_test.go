package llap

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dfs"
	"repro/internal/orc"
	"repro/internal/types"
)

func TestCacheHitAvoidsFS(t *testing.T) {
	fs := dfs.New()
	fs.WriteFile("/f", make([]byte, 4096))
	c := NewCache(fs, 1<<20)
	if _, err := c.ReadChunk("/f", 1, 0, 0, 0, 1024); err != nil {
		t.Fatal(err)
	}
	fs.ResetStats()
	if _, err := c.ReadChunk("/f", 1, 0, 0, 0, 1024); err != nil {
		t.Fatal(err)
	}
	if got := fs.IOStats().ReadOps; got != 0 {
		t.Errorf("cache hit touched the fs: %d reads", got)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestCacheKeyIncludesFileID(t *testing.T) {
	fs := dfs.New()
	fs.WriteFile("/f", []byte("old content padding pad"))
	c := NewCache(fs, 1<<20)
	c.ReadChunk("/f", 1, 0, 0, 0, 3)
	// A new file generation (new FileID) must not see the old bytes: the
	// MVCC property of §5.1.
	fs.Remove("/f", false)
	fs.WriteFile("/f", []byte("NEW content padding pad"))
	got, err := c.ReadChunk("/f", 2, 0, 0, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "NEW" {
		t.Errorf("stale cache served for new file generation: %q", got)
	}
}

func TestCacheEvictionRespectsCapacity(t *testing.T) {
	fs := dfs.New()
	fs.WriteFile("/f", make([]byte, 1<<16))
	c := NewCache(fs, 4096) // room for 4 x 1 KiB chunks
	for i := 0; i < 10; i++ {
		if _, err := c.ReadChunk("/f", 1, i, 0, int64(i*1024), 1024); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.UsedBytes > 4096 {
		t.Errorf("cache exceeded capacity: %d", st.UsedBytes)
	}
	if st.Evictions == 0 {
		t.Error("expected evictions")
	}
}

func TestCacheLRFUPrefersFrequent(t *testing.T) {
	fs := dfs.New()
	fs.WriteFile("/f", make([]byte, 1<<16))
	c := NewCache(fs, 2048)
	// Chunk A accessed many times, B once, then C forces an eviction.
	for i := 0; i < 8; i++ {
		c.ReadChunk("/f", 1, 0, 0, 0, 1024)
	}
	c.ReadChunk("/f", 1, 1, 0, 1024, 1024)
	c.ReadChunk("/f", 1, 2, 0, 2048, 1024) // evicts one of A/B
	fs.ResetStats()
	c.ReadChunk("/f", 1, 0, 0, 0, 1024) // A should still be cached
	if fs.IOStats().ReadOps != 0 {
		t.Error("frequently used chunk was evicted before the cold one")
	}
}

func TestMetadataCache(t *testing.T) {
	fs := dfs.New()
	w := orc.NewWriter(fs, "/t/f", []orc.Column{{Name: "x", Type: types.TInt}}, orc.WriterOptions{})
	w.WriteRow([]types.Datum{types.NewInt(1)})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	mc := NewMetadataCache()
	r1, err := mc.Reader(fs, "/t/f")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := mc.Reader(fs, "/t/f")
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 || mc.Hits() != 1 {
		t.Error("metadata cache did not reuse the reader")
	}
	// Replacing the file invalidates by FileID.
	fs.Remove("/t/f", false)
	w = orc.NewWriter(fs, "/t/f", []orc.Column{{Name: "x", Type: types.TInt}}, orc.WriterOptions{})
	w.WriteRow([]types.Datum{types.NewInt(2)})
	w.Close()
	r3, err := mc.Reader(fs, "/t/f")
	if err != nil {
		t.Fatal(err)
	}
	if r3 == r1 {
		t.Error("metadata cache served a stale reader for a new generation")
	}
}

func TestDaemonsPool(t *testing.T) {
	d := NewDaemons(4)
	rel := d.Acquire(3)
	if _, ok := d.TryAcquire(2); ok {
		t.Error("over-acquisition should fail")
	}
	if r2, ok := d.TryAcquire(1); !ok {
		t.Error("one slot should remain")
	} else {
		r2()
	}
	rel()
	if r, ok := d.TryAcquire(4); !ok {
		t.Error("all slots should be free again")
	} else {
		r()
	}
}

// TestDaemonsAcquireAllOrNothing: a blocked Acquire holds no executors.
// With 4 of 8 held, Acquire(5) blocks without taking the other 4, so a
// TryAcquire(4) still succeeds (two serial plans each holding part of the
// pool used to wait on each other forever). Once both holders release,
// the waiter gets its 5, and after it releases nothing is left waiting.
func TestDaemonsAcquireAllOrNothing(t *testing.T) {
	d := NewDaemons(8)
	first, ok := d.TryAcquire(4)
	if !ok {
		t.Fatal("setup: 4 of 8 executors should be free")
	}
	granted := make(chan func())
	go func() { granted <- d.Acquire(5) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		d.mu.Lock()
		blocked := d.waiting == 1
		d.mu.Unlock()
		if blocked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Acquire(5) never blocked")
		}
		time.Sleep(time.Millisecond)
	}
	second, ok := d.TryAcquire(4)
	if !ok {
		t.Fatal("a blocked Acquire(5) holds executors it was not granted")
	}
	first()
	second()
	(<-granted)()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.free != 8 || d.waiting != 0 {
		t.Errorf("after releasing everything: %d of 8 free, %d waiting", d.free, d.waiting)
	}
}

// TestCacheConcurrentStress hammers the data cache from many goroutines
// with a capacity small enough to force constant insert/evict churn,
// modeling parallel morsel-driven scans sharing one LLAP cache. Run with
// -race; correctness here is "right bytes, no data races, bounded size".
func TestCacheConcurrentStress(t *testing.T) {
	fs := dfs.New()
	const files = 8
	for f := 0; f < files; f++ {
		data := make([]byte, 8192)
		for i := range data {
			data[i] = byte(f)
		}
		fs.WriteFile(fmt.Sprintf("/f%d", f), data)
	}
	// Capacity of ~4 chunks so concurrent readers evict each other.
	c := NewCache(fs, 4*1024)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				f := (w + i) % files
				off := int64((i % 8) * 1024)
				data, err := c.ReadChunk(fmt.Sprintf("/f%d", f), uint64(f+1), i%4, w%3, off, 1024)
				if err != nil {
					t.Error(err)
					return
				}
				if len(data) != 1024 || data[0] != byte(f) {
					t.Errorf("wrong chunk content for file %d", f)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.UsedBytes > 4*1024 {
		t.Errorf("cache over capacity: %d bytes", st.UsedBytes)
	}
	if st.Hits+st.Misses != 8*300 {
		t.Errorf("lost reads: hits %d misses %d", st.Hits, st.Misses)
	}
}

// TestDaemonsConcurrentTryAcquire checks slot accounting under concurrent
// acquire/release from parallel operators.
func TestDaemonsConcurrentTryAcquire(t *testing.T) {
	d := NewDaemons(4)
	var inUse atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := 1 + (w+i)%3
				rel, ok := d.TryAcquire(n)
				if !ok {
					continue
				}
				if cur := inUse.Add(int64(n)); cur > 4 {
					t.Errorf("pool over-committed: %d slots in use", cur)
				}
				inUse.Add(int64(-n))
				rel()
			}
		}(w)
	}
	wg.Wait()
	if r, ok := d.TryAcquire(4); !ok {
		t.Error("slots leaked: full pool unavailable after stress")
	} else {
		r()
	}
}
