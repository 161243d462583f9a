package hive

import (
	"fmt"
	"sync"
	"testing"
)

// setupElevatorTable builds an ACID table with multi-stripe files (via
// doubling INSERT ... SELECT, so single insert transactions exceed the
// 8192-row stripe size), live delete deltas, and data sorted enough that
// range predicates prune stripes by min/max statistics.
func setupElevatorTable(t testing.TB, s *Session) {
	t.Helper()
	s.MustExec(`CREATE TABLE ev (k BIGINT, v DOUBLE, tag STRING)`)
	ins := "INSERT INTO ev VALUES "
	for i := 0; i < 512; i++ {
		if i > 0 {
			ins += ", "
		}
		ins += fmt.Sprintf("(%d, %d.5, 'tag%d')", i, i, i%7)
	}
	s.MustExec(ins)
	// 512 -> 32768 rows; the last doublings write >8192-row delta files,
	// i.e. genuinely multi-stripe single files.
	total := 512
	for total < 32768 {
		s.MustExec(fmt.Sprintf(
			`INSERT INTO ev SELECT k + %d, v + %d.0, tag FROM ev`, total, total))
		total *= 2
	}
	// Delete deltas over committed data, including a sarg-prunable range.
	s.MustExec(`DELETE FROM ev WHERE k >= 1000 AND k < 1100`)
	s.MustExec(`DELETE FROM ev WHERE tag = 'tag3' AND k < 600`)
	s.SetConf("hive.query.results.cache.enabled", "false")
}

// TestElevatorByteIdentity: with the I/O elevator on, results must be
// byte-identical to the synchronous path (hive.llap.elevator=false) at DOP
// 1, 2 and 4 — over an ACID table with delete deltas and sarg-skipped
// stripes, for ordered and unordered queries alike.
func TestElevatorByteIdentity(t *testing.T) {
	wh, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer wh.Close()
	s := wh.Session()
	setupElevatorTable(t, s)

	queries := []struct {
		sql     string
		ordered bool
	}{
		{`SELECT COUNT(*), SUM(v), MIN(k), MAX(k) FROM ev`, true},
		{`SELECT k, v FROM ev WHERE k >= 20000 AND k < 21000 ORDER BY k`, true},
		{`SELECT tag, COUNT(*), SUM(v) FROM ev WHERE k >= 8000 GROUP BY tag ORDER BY tag`, true},
		{`SELECT k, tag FROM ev WHERE k >= 900 AND k < 1200`, false},
	}
	for _, q := range queries {
		s.SetConf("hive.llap.elevator", "false")
		s.SetConf("hive.parallelism", "1")
		base, err := s.Exec(q.sql)
		if err != nil {
			t.Fatalf("sync %s: %v", q.sql, err)
		}
		wantExact, wantSet := base.String(), sortedLines(base)
		for _, elev := range []string{"false", "true"} {
			s.SetConf("hive.llap.elevator", elev)
			for _, dop := range []string{"1", "2", "4"} {
				s.SetConf("hive.parallelism", dop)
				res, err := s.Exec(q.sql)
				if err != nil {
					t.Fatalf("elevator=%s dop=%s %s: %v", elev, dop, q.sql, err)
				}
				if q.ordered {
					if res.String() != wantExact {
						t.Errorf("elevator=%s dop=%s %s: output not byte-identical", elev, dop, q.sql)
					}
				} else if sortedLines(res) != wantSet {
					t.Errorf("elevator=%s dop=%s %s: result multiset diverges", elev, dop, q.sql)
				}
			}
		}
	}
}

// TestElevatorObservability asserts the session counters: sarg-skipped
// stripes on selective scans, decoded-cache hits on repeat scans, and
// accepted prefetches, all zero when the elevator is off.
func TestElevatorObservability(t *testing.T) {
	wh, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer wh.Close()
	s := wh.Session()
	setupElevatorTable(t, s)
	in := s.Internal()

	sel := `SELECT SUM(v) FROM ev WHERE k >= 30000`
	s.SetConf("hive.parallelism", "2")
	s.MustExec(sel)
	if in.LastStripesSkipped == 0 {
		t.Errorf("selective scan skipped %d stripes, want > 0", in.LastStripesSkipped)
	}
	first := *in
	s.MustExec(sel)
	if in.LastDecodedCacheHits == 0 {
		t.Errorf("repeat scan decoded-cache hits = %d, want > 0 (first run: hits=%d misses=%d prefetched=%d)",
			in.LastDecodedCacheHits, first.LastDecodedCacheHits, first.LastDecodedCacheMisses, first.LastPrefetchedStripes)
	}
	// A full scan prefetches: multi-stripe files with no sarg to prune.
	s.MustExec(`SELECT COUNT(*) FROM ev WHERE tag <> 'nope'`)
	if in.LastPrefetchedStripes == 0 {
		t.Errorf("full scan prefetched %d stripes, want > 0", in.LastPrefetchedStripes)
	}
	// Elevator off: the decoded cache and prefetcher are not consulted.
	s.SetConf("hive.llap.elevator", "false")
	s.MustExec(sel)
	if in.LastDecodedCacheHits != 0 || in.LastDecodedCacheMisses != 0 || in.LastPrefetchedStripes != 0 {
		t.Errorf("elevator off but decoded hits/misses/prefetched = %d/%d/%d",
			in.LastDecodedCacheHits, in.LastDecodedCacheMisses, in.LastPrefetchedStripes)
	}
	if in.LastStripesSkipped == 0 {
		t.Error("sarg skipping must work without the elevator")
	}
}

// TestResultCacheHitZeroesRunCounters: a result-cache hit runs no scan,
// so it must not report the counters of the run before it.
func TestResultCacheHitZeroesRunCounters(t *testing.T) {
	wh, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer wh.Close()
	s := wh.Session()
	setupElevatorTable(t, s)
	s.SetConf("hive.query.results.cache.enabled", "true")
	in := s.Internal()

	sel := `SELECT SUM(v) FROM ev WHERE k >= 30000`
	s.MustExec(sel)
	if in.LastCacheHit || in.LastStripesSkipped == 0 || in.LastPeakMemoryBytes == 0 {
		t.Fatalf("setup: miss reported hit=%v, %d stripes skipped, %d peak bytes",
			in.LastCacheHit, in.LastStripesSkipped, in.LastPeakMemoryBytes)
	}
	s.MustExec(sel)
	if !in.LastCacheHit {
		t.Fatal("repeat did not hit the result cache")
	}
	got := []int64{in.LastPeakMemoryBytes, in.LastSpilledBytes, in.LastDecodedCacheHits, in.LastDecodedCacheMisses,
		in.LastStripesSkipped, in.LastDeleteStripesSkipped, in.LastPrefetchedStripes}
	for _, v := range got {
		if v != 0 {
			t.Fatalf("cache hit reports the previous run's counters "+
				"(peak, spilled, decoded hits, misses, stripes skipped, delete stripes skipped, prefetched): %v", got)
		}
	}
}

// TestElevatorConcurrentTinyCache is the race hammer: concurrent sessions
// scan the same table through a decoded cache far too small for the
// working set, so fills, hits and evictions interleave under -race while
// elevator workers decode in the background. Every query must still return
// the correct aggregate.
func TestElevatorConcurrentTinyCache(t *testing.T) {
	wh, err := Open(Config{DecodedCacheBytes: 64 << 10, IOThreads: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer wh.Close()
	setup := wh.Session()
	setupElevatorTable(t, setup)

	base := setup.MustExec(`SELECT COUNT(*), SUM(v) FROM ev`).String()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := wh.Session()
			defer s.Close()
			s.SetConf("hive.query.results.cache.enabled", "false")
			s.SetConf("hive.parallelism", fmt.Sprint(1+g%4))
			for i := 0; i < 4; i++ {
				res, err := s.Query(`SELECT COUNT(*), SUM(v) FROM ev`)
				if err != nil {
					errs <- fmt.Errorf("worker %d: %v", g, err)
					return
				}
				if res.String() != base {
					errs <- fmt.Errorf("worker %d: got %q want %q", g, res.String(), base)
					return
				}
				lo := (g*4 + i) * 500 % 30000
				if _, err := s.Query(fmt.Sprintf(
					`SELECT SUM(v) FROM ev WHERE k >= %d AND k < %d`, lo, lo+2000)); err != nil {
					errs <- fmt.Errorf("worker %d selective: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := wh.Server().Decoded.Stats()
	if st.Evictions == 0 {
		t.Errorf("tiny decoded cache saw no evictions (used=%d entries=%d)", st.UsedBytes, st.Entries)
	}
	if st.UsedBytes > 64<<10 {
		t.Errorf("decoded cache used %d bytes over its 64KiB capacity", st.UsedBytes)
	}
	// Single-flight accounting: after Close drains the pool, every accepted
	// request was decoded or abandoned — coalesced joins ride an accepted
	// flight, they never add work — and the in-flight estimate fully
	// unwinds. (wh.Close re-closing the elevator is an idempotent no-op.)
	wh.Server().Elevator.Close()
	est := wh.Server().Elevator.Stats()
	if est.Enqueued != est.Decoded+est.Abandoned {
		t.Errorf("elevator accounting: enqueued %d != decoded %d + abandoned %d",
			est.Enqueued, est.Decoded, est.Abandoned)
	}
	if est.InflightBytes != 0 {
		t.Errorf("elevator in-flight bytes = %d after Close, want 0", est.InflightBytes)
	}
}
