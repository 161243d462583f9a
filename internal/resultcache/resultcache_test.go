package resultcache

import (
	"sync"
	"testing"
	"time"

	"repro/internal/types"
)

func row(v int64) []types.Datum { return []types.Datum{types.NewBigint(v)} }

func TestHitMissAndInvalidation(t *testing.T) {
	c := New(8)
	snap := Snapshot{"db.t": 5}
	_, _, out := c.Lookup("q1", snap)
	if out != MissFill {
		t.Fatalf("first lookup: %v", out)
	}
	c.Fill("q1", []string{"a"}, [][]types.Datum{row(1)}, snap)
	cols, rows, out := c.Lookup("q1", snap)
	if out != Hit || cols[0] != "a" || rows[0][0].I != 1 {
		t.Fatalf("hit: %v %v %v", cols, rows, out)
	}
	// A different snapshot (after a write) misses.
	snap2 := Snapshot{"db.t": 6}
	_, _, out = c.Lookup("q1", snap2)
	if out != MissFill {
		t.Fatalf("stale snapshot should miss: %v", out)
	}
	c.Abandon("q1", snap2)
}

// TestOldSnapshotStillServed is the multi-version property: a write (new
// snapshot version) must not stop the cache from serving readers whose
// snapshot predates it.
func TestOldSnapshotStillServed(t *testing.T) {
	c := New(8)
	old := Snapshot{"db.t": 5}
	niu := Snapshot{"db.t": 6}
	c.Lookup("q", old)
	c.Fill("q", []string{"a"}, [][]types.Datum{row(1)}, old)
	c.Lookup("q", niu)
	c.Fill("q", []string{"a"}, [][]types.Datum{row(2)}, niu)

	_, rows, out := c.Lookup("q", old)
	if out != Hit || rows[0][0].I != 1 {
		t.Fatalf("old-snapshot reader lost its version: %v %v", rows, out)
	}
	_, rows, out = c.Lookup("q", niu)
	if out != Hit || rows[0][0].I != 2 {
		t.Fatalf("new-snapshot reader: %v %v", rows, out)
	}
}

// TestHitDoesNotAliasCachedRows is the regression test for the cache
// aliasing bug: a Hit used to return the internal rows slice by reference,
// so a downstream mutation (sort, truncation, element replacement)
// poisoned the shared entry for every later session.
func TestHitDoesNotAliasCachedRows(t *testing.T) {
	c := New(8)
	snap := Snapshot{"db.t": 1}
	c.Lookup("q", snap)
	c.Fill("q", []string{"a"}, [][]types.Datum{row(1), row(2)}, snap)

	cols, rows, out := c.Lookup("q", snap)
	if out != Hit {
		t.Fatal("setup: expected hit")
	}
	// Vandalize the returned headers the way a fetch path might.
	rows[0], rows[1] = rows[1], rows[0]
	rows[0] = row(99)
	rows = rows[:1]
	cols[0] = "mangled"
	_ = rows

	cols2, rows2, out := c.Lookup("q", snap)
	if out != Hit {
		t.Fatal("second lookup should hit")
	}
	if cols2[0] != "a" {
		t.Fatalf("cached columns poisoned: %v", cols2)
	}
	if len(rows2) != 2 || rows2[0][0].I != 1 || rows2[1][0].I != 2 {
		t.Fatalf("cached rows poisoned: %v", rows2)
	}
}

// TestNoEvictionOnReplace is the regression test for the eviction-on-replace
// bug: refilling an existing (key, snapshot) does not grow the cache and
// must not evict an unrelated entry. Pre-fix the cache evicted an arbitrary
// map entry whenever it was at capacity, even on replacement.
func TestNoEvictionOnReplace(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		c := New(2)
		snap := Snapshot{"t": 1}
		c.Lookup("a", snap)
		c.Fill("a", []string{"x"}, [][]types.Datum{row(1)}, snap)
		c.Lookup("b", snap)
		c.Fill("b", []string{"x"}, [][]types.Datum{row(2)}, snap)
		// Replace "a" in place; cache is at capacity but does not grow.
		c.Fill("a", []string{"x"}, [][]types.Datum{row(10)}, snap)
		if _, _, out := c.Lookup("b", snap); out != Hit {
			t.Fatalf("trial %d: replacing %q evicted unrelated %q", trial, "a", "b")
		}
		if _, rows, out := c.Lookup("a", snap); out != Hit || rows[0][0].I != 10 {
			t.Fatalf("trial %d: replacement not visible: %v", trial, out)
		}
	}
}

// TestEvictionIsLRU: with the cache full, filling a new key evicts the
// least-recently-used entry, not an arbitrary one.
func TestEvictionIsLRU(t *testing.T) {
	c := New(2)
	snap := Snapshot{"t": 1}
	for _, k := range []string{"a", "b"} {
		c.Lookup(k, snap)
		c.Fill(k, []string{"x"}, [][]types.Datum{row(1)}, snap)
	}
	// Touch "a" so "b" is least recently used.
	if _, _, out := c.Lookup("a", snap); out != Hit {
		t.Fatal("setup: a should hit")
	}
	c.Lookup("c", snap)
	c.Fill("c", []string{"x"}, [][]types.Datum{row(3)}, snap)

	if _, _, out := c.Lookup("a", snap); out != Hit {
		t.Fatal("LRU eviction removed recently-used entry a")
	}
	if c.Len() != 2 {
		t.Fatalf("cache over capacity: %d", c.Len())
	}
	_, _, out := c.Lookup("b", snap)
	if out == Hit {
		t.Fatal("expected b (least recently used) to be evicted")
	}
	if out == MissFill {
		c.Abandon("b", snap)
	}
}

func TestPendingEntryBlocksThunderingHerd(t *testing.T) {
	c := New(8)
	snap := Snapshot{"db.t": 1}
	if _, _, out := c.Lookup("q", snap); out != MissFill {
		t.Fatal("expected fill ownership")
	}
	var wg sync.WaitGroup
	results := make([]Outcome, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, out := c.Lookup("q", snap)
			results[i] = out
		}(i)
	}
	c.Fill("q", []string{"x"}, [][]types.Datum{row(7)}, snap)
	wg.Wait()
	for i, out := range results {
		// A waiter either blocked on the pending entry (MissWaited) or ran
		// after the fill and saw the fresh entry (Hit); it must never be
		// handed fill ownership while another query is computing.
		if out != MissWaited && out != Hit {
			t.Errorf("waiter %d got %v, want MissWaited or Hit", i, out)
		}
	}
	// Retry after wait is a hit.
	if _, _, out := c.Lookup("q", snap); out != Hit {
		t.Errorf("post-fill lookup: %v", out)
	}
}

// TestWaitIsNotAMiss: a Lookup that waits on a pending fill counts one
// wait and no miss; its retry after the fill counts one hit.
func TestWaitIsNotAMiss(t *testing.T) {
	c := New(8)
	snap := Snapshot{"t": 1}
	if _, _, out := c.Lookup("q", snap); out != MissFill {
		t.Fatal("expected fill ownership")
	}
	waited := make(chan Outcome)
	go func() {
		_, _, out := c.Lookup("q", snap)
		waited <- out
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, _, waits := c.Stats(); waits == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second Lookup never waited on the pending fill")
		}
		time.Sleep(time.Millisecond)
	}
	c.Fill("q", []string{"x"}, [][]types.Datum{row(1)}, snap)
	if out := <-waited; out != MissWaited {
		t.Fatalf("waiter got %v, want MissWaited", out)
	}
	if _, _, out := c.Lookup("q", snap); out != Hit {
		t.Fatalf("retry after the fill: %v, want Hit", out)
	}
	if hits, misses, waits := c.Stats(); hits != 1 || misses != 1 || waits != 1 {
		t.Errorf("stats = %d hits, %d misses, %d waits; want 1, 1, 1", hits, misses, waits)
	}
}

// TestPendingPerSnapshot: fills at distinct snapshots do not serialize on
// one pending entry — a reader at a newer snapshot is not blocked by a
// fill in progress at an older one.
func TestPendingPerSnapshot(t *testing.T) {
	c := New(8)
	old := Snapshot{"t": 1}
	niu := Snapshot{"t": 2}
	if _, _, out := c.Lookup("q", old); out != MissFill {
		t.Fatal("expected fill ownership at old snapshot")
	}
	// A newer-snapshot reader must get its own fill, not wait.
	if _, _, out := c.Lookup("q", niu); out != MissFill {
		t.Fatalf("newer snapshot should own its own fill, got %v", out)
	}
	c.Fill("q", []string{"x"}, [][]types.Datum{row(1)}, old)
	c.Fill("q", []string{"x"}, [][]types.Datum{row(2)}, niu)
}

func TestAbandonReleasesWaiters(t *testing.T) {
	c := New(8)
	snap := Snapshot{}
	c.Lookup("q", snap) // MissFill: we own it
	done := make(chan Outcome, 1)
	go func() {
		_, _, out := c.Lookup("q", snap)
		done <- out
	}()
	c.Abandon("q", snap)
	// The waiter either blocked on the pending entry (MissWaited) or ran
	// after the abandon and took over the fill (MissFill); both are
	// correct — the essential property is that it does not hang.
	out := <-done
	if out == MissFill {
		c.Abandon("q", snap)
	} else if out != MissWaited {
		t.Errorf("waiter after abandon: %v", out)
	}
}

func TestEvictionBound(t *testing.T) {
	c := New(2)
	for i := 0; i < 5; i++ {
		key := string(rune('a' + i))
		c.Lookup(key, Snapshot{})
		c.Fill(key, nil, nil, Snapshot{})
	}
	hits, misses, _ := c.Stats()
	if misses != 5 || hits != 0 {
		t.Errorf("stats: %d hits %d misses", hits, misses)
	}
	if c.Len() > 2 {
		t.Errorf("cache exceeded bound: %d entries", c.Len())
	}
}

// TestConcurrentStress exercises the pending-entry protocol from many
// goroutines racing identical and distinct queries with fills, abandons
// and snapshot invalidations. Run with -race.
func TestConcurrentStress(t *testing.T) {
	c := New(8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				key := string(rune('a' + i%12))
				snap := Snapshot{"t": int64(i % 3)}
				cols, rows, out := c.Lookup(key, snap)
				switch out {
				case Hit:
					if len(cols) != 1 || len(rows) != 1 {
						t.Error("hit returned wrong shape")
						return
					}
				case MissFill:
					if i%7 == 0 {
						c.Abandon(key, snap)
					} else {
						c.Fill(key, []string{"c"}, [][]types.Datum{{types.NewBigint(42)}}, snap)
					}
				case MissWaited:
					// retry next round
				}
			}
		}(w)
	}
	wg.Wait()
}
