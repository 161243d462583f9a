package main

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	hive "repro"
	"repro/internal/bench"
	"repro/internal/dfs"
	"repro/internal/llap"
)

func TestSameSeedSameStream(t *testing.T) {
	shapes := biShapes()
	a, b := biStream(shapes, 7, 0, 2000), biStream(shapes, 7, 0, 2000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("bi_serving: the same seed gave two request streams")
	}
	if reflect.DeepEqual(a, biStream(shapes, 8, 0, 2000)) {
		t.Fatal("bi_serving: seeds 7 and 8 gave the same stream")
	}
	if reflect.DeepEqual(a, biStream(shapes, 7, biWarmPart, 2000)) {
		t.Fatal("bi_serving: the warm-up replays the measured stream")
	}
	distinct := map[[2]int]bool{}
	prepared := 0
	for _, r := range a {
		distinct[[2]int{r.Shape, r.Combo}] = true
		if r.Prepared {
			prepared++
		}
	}
	if len(distinct) < 256 {
		t.Errorf("bi_serving: %d distinct statements in 2000 requests, want more than the result cache holds", len(distinct))
	}
	if prepared == 0 || prepared > len(a)/5 {
		t.Errorf("bi_serving: %d of %d requests prepared", prepared, len(a))
	}
	total := 0
	for _, sh := range shapes {
		total += len(sh.combos)
	}
	if total != 476 {
		t.Errorf("bi_serving universe is %d statements, the docs say 476", total)
	}

	o3 := passOrder(3, 31)
	if !reflect.DeepEqual(o3, passOrder(3, 31)) || reflect.DeepEqual(o3, passOrder(4, 31)) {
		t.Fatal("etl_report: pass order is not a function of the seed")
	}
	// Rotations of one order: every query keeps its predecessor.
	next := func(o []int) map[int]int {
		m := map[int]int{}
		for i := range o {
			m[o[i]] = o[(i+1)%len(o)]
		}
		return m
	}
	if !reflect.DeepEqual(next(o3), next(passOrder(4, 31))) {
		t.Fatal("etl_report: seeds change which query precedes which")
	}

	writes := func(seed int64) []string {
		e := &acidEnv{}
		e.model = acidModel{lo: 1, hi: acidLive, qty: map[int64]int64{}, cents: map[int64]int64{}}
		e.wrng = acidWriterRand(seed)
		var out []string
		for i := 0; i < 300; i++ {
			_, text, _ := e.nextWrite()
			out = append(out, text)
			if c := e.model.count(); c < acidLive || c > acidLive+acidStage {
				t.Fatalf("acid_mixed: live count %d strays from %d", c, acidLive)
			}
		}
		return out
	}
	if !reflect.DeepEqual(writes(5), writes(5)) {
		t.Fatal("acid_mixed: the same seed gave two write streams")
	}
}

func TestPercentileSampleRule(t *testing.T) {
	if n := minSamplesFor(99); n != 1000 {
		t.Errorf("p99 needs %d samples, want 1000", n)
	}
	if n := minSamplesFor(90); n != 100 {
		t.Errorf("p90 needs %d samples, want 100", n)
	}
	mk := func(n int) []time.Duration {
		ds := make([]time.Duration, n)
		for i := range ds {
			ds[i] = time.Duration(n-i) * time.Millisecond // descending: percentile must sort
		}
		return ds
	}
	if _, ok := percentile(mk(999), 99); ok {
		t.Error("p99 reported from 999 samples")
	}
	v, ok := percentile(mk(1000), 99)
	if !ok || v != 990*time.Millisecond {
		t.Errorf("p99 of 1..1000 ms = %v, %v; want 990ms, true", v, ok)
	}
	if v, ok := percentile(mk(3), 50); !ok || v != 2*time.Millisecond {
		t.Errorf("median of 1..3 ms = %v, %v", v, ok)
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("median of no samples reported")
	}
	for n, want := range map[int]float64{40: 0, 62: 80, 100: 90, 999: 95, 1000: 99} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tail percentile of %d samples = p%v, want p%v", n, got, want)
		}
	}
}

func TestLayerStatsDelta(t *testing.T) {
	a := layerStats{
		Chunk:    llap.CacheStats{Hits: 10, Misses: 5, Evictions: 1, UsedBytes: 100},
		Meta:     llap.MetaStats{Hits: 3, Misses: 1, Entries: 4},
		Decoded:  llap.DecodedCacheStats{Hits: 7, Misses: 2},
		Elevator: llap.ElevatorStats{Decoded: 4, Dropped: 1, MaxDepth: 3},
		PlanHits: 2, PlanMiss: 1, ResHits: 8, ResMiss: 4, ResWaits: 1,
		IO: dfs.Stats{ReadOps: 20, BytesRead: 2000, WriteOps: 3},
	}
	b := a
	b.Chunk = llap.CacheStats{Hits: 30, Misses: 15, Evictions: 6, UsedBytes: 80}
	b.Meta.Hits, b.Meta.Entries = 9, 6
	b.Elevator.Decoded, b.Elevator.MaxDepth = 10, 5
	b.PlanHits, b.ResMiss, b.ResWaits = 12, 10, 4
	b.IO = dfs.Stats{ReadOps: 25, BytesRead: 4048, WriteOps: 3}
	d := b.sub(a)
	if d.Chunk.Hits != 20 || d.Chunk.Misses != 10 || d.Chunk.Evictions != 5 || d.Chunk.UsedBytes != 80 {
		t.Errorf("chunk delta %+v", d.Chunk)
	}
	if d.Meta.Hits != 6 || d.Meta.Misses != 0 || d.Meta.Entries != 6 {
		t.Errorf("meta delta %+v", d.Meta)
	}
	if d.Elevator.Decoded != 6 || d.Elevator.Dropped != 0 || d.Elevator.MaxDepth != 5 {
		t.Errorf("elevator delta %+v", d.Elevator)
	}
	if d.PlanHits != 10 || d.PlanMiss != 0 || d.ResHits != 0 || d.ResMiss != 6 || d.ResWaits != 3 {
		t.Errorf("cache deltas %+v", d)
	}
	if d.IO != (dfs.Stats{ReadOps: 5, BytesRead: 2048}) {
		t.Errorf("dfs delta %+v", d.IO)
	}
	if r := ratio(d.Chunk.Hits, d.Chunk.Misses); r < 0.666 || r > 0.667 {
		t.Errorf("chunk hit ratio %v", r)
	}
	if ratio(0, 0) != 0 {
		t.Error("ratio of no lookups")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Op: 1, Parent: -1, Start: 0, End: 100},
		{Name: "a", Op: 1, Parent: 0, Start: 10, End: 30},
		{Name: "b", Op: 1, Parent: 0, Start: 20, End: 50}, // overlaps a
		{Name: "c", Op: 1, Parent: 1, Start: 12, End: 15},
		{Name: "b", Op: 2, Parent: -1, Start: 200, End: 210},
		{Name: "d", Op: 2, Parent: 4, Start: 205, End: 260}, // runs past its parent
		{Name: "e", Op: 3, Parent: -1, Start: 300, End: -1}, // never closed
	}
	got := selfTimes(spans)
	want := map[string]layerTime{
		"op": {60, 1}, // 100 minus the union [10,50] of a and b
		"a":  {17, 1},
		"b":  {30 + 5, 2},
		"c":  {3, 1},
		"d":  {55, 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times\n got %v\nwant %v", got, want)
	}
}

// TestTracedSlicesAlternate pins how a traced run measures its own
// overhead: the meter switches tracing off for the even slices and on for
// the odd ones, and byParity pools each set of slices apart.
func TestTracedSlicesAlternate(t *testing.T) {
	wh, err := hive.Open(hive.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer wh.Close()
	x := &executor{srv: wh.Server(), tr: newTracer()}
	m := startMeter(x, time.Now(), 1, time.Second)
	for i, wantOff := range []bool{true, false, true, false} {
		if i > 0 {
			m.mark()
		}
		if x.off.Load() != wantOff {
			t.Fatalf("slice %d: tracing off = %v", i, x.off.Load())
		}
	}
	m.stop(&window{})
	ms := time.Millisecond
	w := &window{
		Marks:  []mark{{At: 0, CPU: 0}, {At: 10 * ms, CPU: 4 * ms}, {At: 20 * ms, CPU: 10 * ms}, {At: 30 * ms, CPU: 12 * ms}},
		Reads:  []sample{{1 * ms, 1 * ms}, {2 * ms, 3 * ms}, {12 * ms, 9 * ms}, {25 * ms, 2 * ms}},
		Writes: []sample{{15 * ms, 5 * ms}},
	}
	even, odd := byParity(w, 0), byParity(w, 1)
	if even["ops"].Value != 3 || even["cpu_ms_per_op"].Value != 2 || even["read_p50_ms"].Value != 2 {
		t.Errorf("even slices %v", even)
	}
	if odd["ops"].Value != 2 || odd["cpu_ms_per_op"].Value != 3 || odd["read_p50_ms"].Value != 9 {
		t.Errorf("odd slices %v", odd)
	}
}

// TestWindowRates checks that CPU and allocation per operation are the
// window's totals over all its operations, not a median over slices.
func TestWindowRates(t *testing.T) {
	ms := time.Millisecond
	w := &window{
		Marks:  []mark{{At: 0, CPU: 1 * ms, Alloc: 1024}, {At: 10 * ms, CPU: 9 * ms, Alloc: 2048}, {At: 20 * ms, CPU: 11 * ms, Alloc: 11264}},
		Reads:  []sample{{1 * ms, 1 * ms}, {2 * ms, 1 * ms}, {3 * ms, 1 * ms}, {12 * ms, 1 * ms}},
		Writes: []sample{{15 * ms, 1 * ms}},
	}
	r := windowRates(w)
	if r["cpu_ms_per_op"].Value != 2 || r["alloc_kb_per_op"].Value != 2 {
		t.Errorf("window rates %v", r)
	}
}

// TestHitRecordsNoExecCounters pins the guard against stale session
// observability: a result-cache hit returns before the plan runs, so the
// session's Last* execution counters still describe the previous query.
// The traced run must record them as absent for the hit.
func TestHitRecordsNoExecCounters(t *testing.T) {
	wh, err := hive.Open(hive.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer wh.Close()
	s := wh.Session()
	if err := bench.SetupTPCDS(func(q string) error { _, err := s.Exec(q); return err }, bench.TinyTPCDS()); err != nil {
		t.Fatal(err)
	}
	x := &executor{srv: wh.Server(), tr: newTracer()}
	skipping := `SELECT COUNT(*) FROM store_sales WHERE ss_quantity > 100`
	grouping := `SELECT ss_store_sk, SUM(ss_sales_price) FROM store_sales GROUP BY ss_store_sk`
	before := readLayers(wh.Server())
	for _, q := range []string{skipping, grouping, skipping} {
		if _, err := x.exec(s, "q", q); err != nil {
			t.Fatal(err)
		}
	}
	recs := x.tr.records
	if len(recs) != 3 {
		t.Fatalf("%d records", len(recs))
	}
	first, hit := recs[0], recs[2]
	if first.CacheHit || first.StripesSkipped == nil || *first.StripesSkipped == 0 {
		t.Fatalf("first run should execute and skip stripes: %+v", first)
	}
	if recs[1].PeakMemBytes == nil || *recs[1].PeakMemBytes == 0 {
		t.Fatalf("grouping query should report its peak memory: %+v", recs[1])
	}
	if !hit.CacheHit {
		t.Fatalf("repeat should be a result-cache hit: %+v", hit)
	}
	if hit.StripesSkipped != nil || hit.PeakMemBytes != nil || hit.SpilledBytes != nil ||
		hit.DecodedHits != nil || hit.DecodedMisses != nil {
		t.Errorf("hit recorded exec-side counters it never produced: %+v", hit.execSide)
	}
	if hit.CompileNs == nil {
		t.Error("hit compiled before its lookup; compile time should be recorded")
	}
	d := readLayers(wh.Server()).sub(before)
	if d.ResHits != 1 || d.ResMiss != 2 {
		t.Errorf("result cache deltas: %d hits, %d misses; want 1, 2", d.ResHits, d.ResMiss)
	}
	names := map[string]int{}
	for _, sp := range x.tr.spans {
		names[sp.Name]++
	}
	for _, n := range []string{"op", "sql.parse", "sql.parameterize", "analyze.select", "opt.optimize", "hs2.execute", "hs2.compile"} {
		if names[n] != 3 {
			t.Errorf("%d %s spans, want 3", names[n], n)
		}
	}
}

func TestAnswerChecks(t *testing.T) {
	if q, n := splitLimit("SELECT a FROM t ORDER BY a DESC LIMIT 15"); q != "SELECT a FROM t ORDER BY a DESC" || n != 15 {
		t.Errorf("splitLimit: %q %d", q, n)
	}
	if _, n := splitLimit("SELECT a FROM t"); n != -1 {
		t.Errorf("splitLimit without LIMIT: %d", n)
	}
	if hasOrderBy("SELECT x, SUM(y) OVER (PARTITION BY a ORDER BY b) FROM t") {
		t.Error("window ORDER BY taken for the query's")
	}
	if !hasOrderBy("SELECT a FROM (SELECT a FROM t) s ORDER BY a") {
		t.Error("outer ORDER BY missed")
	}
	if got := orderItems("SELECT a, f(b, c) AS s FROM t GROUP BY a ORDER BY f(b, c) DESC, t.a ASC, s LIMIT 5"); !reflect.DeepEqual(got, []string{"f(b, c)", "t.a", "s"}) {
		t.Errorf("orderItems: %q", got)
	}
	if orderItems("SELECT a, rank() OVER (ORDER BY b) FROM t") != nil {
		t.Error("orderItems took a window's ORDER BY")
	}
	if c := columnOf([]string{"d_year", "sales.total"}, "total"); c != 1 {
		t.Errorf("columnOf qualified output: %d", c)
	}
	if c := columnOf([]string{"a.cnt", "b.cnt"}, "cnt"); c != -1 {
		t.Errorf("columnOf ambiguous: %d", c)
	}
	if c := columnOf([]string{"s"}, "SUM(s)"); c != -1 {
		t.Errorf("columnOf expression: %d", c)
	}
	if q, err := withKeys("SELECT a FROM (SELECT a, b FROM t) s ORDER BY b", []string{"b"}); err != nil ||
		q != "SELECT a, b AS hb_key0 FROM (SELECT a, b FROM t) s ORDER BY b" {
		t.Errorf("withKeys: %q %v", q, err)
	}

	// Keys 9 7 5 5 5 1 with a LIMIT of 4: the rows before the tied run
	// must come first and in order; two of c, d, e fill the last places.
	a := etlAnswer{ordered: true, size: 4,
		rows: []string{"a", "b", "c", "d", "e", "f"},
		keys: []string{"9", "7", "5", "5", "5", "1"}}
	for _, got := range [][]string{{"a", "b", "c", "d"}, {"a", "b", "e", "c"}, {"a", "b", "d", "e"}} {
		if !a.accepts(got) {
			t.Errorf("right answer %q rejected", got)
		}
	}
	for _, got := range [][]string{
		{"b", "a", "c", "d"}, // reordered
		{"f", "e", "d", "c"}, // bottom k
		{"a", "b", "c", "f"}, // a row from beyond the tie
		{"a", "b", "c", "c"}, // a tied row twice
		{"a", "b", "c"},      // short
		{"a", "b", "c", "d", "e"},
	} {
		if a.accepts(got) {
			t.Errorf("wrong answer %q accepted", got)
		}
	}
	a.size = 6 // no LIMIT: tied rows in any order, the rest in order
	if !a.accepts([]string{"a", "b", "e", "c", "d", "f"}) || a.accepts([]string{"a", "b", "c", "d", "f", "e"}) {
		t.Error("ordered answer without LIMIT misjudged")
	}
	u := etlAnswer{rows: []string{"a", "b"}}
	if !u.accepts([]string{"b", "a"}) || u.accepts([]string{"a", "a"}) {
		t.Error("unordered answers compare as multisets")
	}
}

// TestETLOracle builds the oracle for every TPC-DS query on TinyTPCDS. It
// must accept each answer of the measured configuration and reject the
// oracle's own ordered answers reversed wherever their keys differ.
func TestETLOracle(t *testing.T) {
	wh, err := hive.Open(hive.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer wh.Close()
	s := wh.Session()
	defer s.Close()
	if err := bench.SetupTPCDS(func(q string) error { _, err := s.Exec(q); return err }, bench.TinyTPCDS()); err != nil {
		t.Fatal(err)
	}
	e := &etlEnv{wh: wh, s: s, queries: bench.TPCDSQueries()}
	want, err := e.oracle()
	if err != nil {
		t.Fatal(err)
	}
	s.SetConf("hive.query.results.cache.enabled", "false")
	s.SetConf("hive.query.max.memory", fmt.Sprint(etlBudget))
	reversed := 0
	for i, q := range e.queries {
		res, err := s.Exec(q.SQL)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		a := want[i]
		if !a.accepts(rowLines(res.Rows)) {
			t.Errorf("%s: answer rejected", q.Name)
		}
		if !a.ordered || len(a.keys) == 0 || a.keys[0] == a.keys[a.size-1] {
			continue
		}
		rev := append([]string(nil), a.rows[:a.size]...)
		slices.Reverse(rev)
		if a.accepts(rev) {
			t.Errorf("%s: reversed answer accepted", q.Name)
		}
		reversed++
	}
	if reversed < 10 {
		t.Errorf("only %d ordered queries had distinct keys to reverse", reversed)
	}
}
