package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	hive "repro"
	"repro/internal/bench"
)

// biRate is bi_serving's fixed arrival rate in requests per second. The
// two sessions sending back to back, with no pacing, completed about
// 3600 requests/s on the 2-CPU host the benchmark was defined on. At half
// of that the senders' queues made the median swing from 1 to 12 ms
// between runs; at a sixth the median is the served latency, not the
// queue. qps therefore equals the rate unless the warehouse saturates.
const biRate = 600

// biBurst is how many requests arrive together, as the tiles of one
// dashboard refresh: at 600 requests/s, a burst of 30 every 50 ms. With
// requests spread evenly the senders went idle between any two of them,
// and a cache hit that started on a CPU coming back from idle took about
// 0.12 ms against 0.05 ms for one sent straight after another, by an
// amount that moved with the load on the host: read_p50_ms spread by up
// to 45% between runs of the same code. In a burst each sender runs its
// share back to back, and only its first request starts cold.
const biBurst = 30

// biPreparedShare is the fraction of requests sent as EXECUTE of a
// statement PREPAREd at session start rather than as ad-hoc SQL.
const biPreparedShare = 0.1

// biShape is one parameterized dashboard query. Every literal in the
// statement is one of its parameters, in text order, so the same values
// serve as the ad-hoc literals and as the EXECUTE arguments.
type biShape struct {
	sql    string
	combos [][]any
}

func cross(a, b []any) [][]any {
	var out [][]any
	for _, x := range a {
		for _, y := range b {
			out = append(out, []any{x, y})
		}
	}
	return out
}

func ints(lo, hi int) []any {
	var out []any
	for i := lo; i <= hi; i++ {
		out = append(out, i)
	}
	return out
}

func strs(ss ...string) []any {
	out := make([]any, len(ss))
	for i, s := range ss {
		out[i] = s
	}
	return out
}

// biShapes are eight TPC-DS-derived dashboard shapes over SmallTPCDS. The
// literal universes total 476 distinct statements, more than the result
// cache's 256 entries.
func biShapes() []biShape {
	cats := strs("Sports", "Books", "Home", "Electronics", "Music", "Shoes")
	states := strs("CA", "NY", "TX", "WA")
	brands := strs("brandA", "brandB", "brandC", "brandD")
	var dayRanges, dayRange4 [][]any
	for _, st := range states {
		for d := 1; d <= 20; d++ {
			dayRanges = append(dayRanges, []any{st, d, d + 4})
		}
	}
	for d := 1; d <= 20; d++ {
		dayRange4 = append(dayRange4, []any{d, d + 4})
	}
	var items [][]any
	for i := 1; i <= 60; i++ {
		d := i%20 + 1
		items = append(items, []any{i * 5, d, d + 3})
	}
	var custs [][]any
	for c := 1; c <= 100; c++ {
		custs = append(custs, []any{c * 7})
	}
	var days [][]any
	for _, d := range ints(1, 24) {
		days = append(days, []any{d})
	}
	return []biShape{
		{`SELECT d_year, i_brand, SUM(ss_sales_price) AS rev
			FROM store_sales, date_dim, item
			WHERE ss_sold_date_sk = d_date_sk AND ss_item_sk = i_item_sk
			  AND i_category = %s AND d_moy = %s
			GROUP BY d_year, i_brand ORDER BY d_year, rev DESC, i_brand LIMIT 10`, cross(cats, ints(1, 12))},
		{`SELECT s_store_name, SUM(ss_sales_price) AS rev, COUNT(*) AS cnt
			FROM store_sales, store
			WHERE ss_store_sk = s_store_sk AND s_state = %s
			  AND ss_sold_date_sk BETWEEN %s AND %s
			GROUP BY s_store_name ORDER BY rev DESC, s_store_name`, dayRanges},
		{`SELECT c_customer_id, COUNT(*) AS cnt, SUM(ss_sales_price) AS total
			FROM store_sales, customer
			WHERE ss_customer_sk = c_customer_sk AND c_customer_sk = %s
			GROUP BY c_customer_id`, custs},
		{`SELECT i_item_id, SUM(ss_quantity) AS qty, AVG(ss_sales_price) AS avg_price
			FROM store_sales, item
			WHERE ss_item_sk = i_item_sk AND i_item_sk = %s
			  AND ss_sold_date_sk BETWEEN %s AND %s
			GROUP BY i_item_id`, items},
		{`SELECT COUNT(*) AS cnt, SUM(ss_sales_price) AS rev
			FROM store_sales WHERE ss_sold_date_sk = %s AND ss_quantity >= %s`, cross(ints(1, 24), []any{3, 6, 9})},
		{`SELECT i_category, COUNT(*) AS cnt, SUM(sr_return_amt) AS amt
			FROM store_returns, item
			WHERE sr_item_sk = i_item_sk AND sr_returned_date_sk BETWEEN %s AND %s
			GROUP BY i_category ORDER BY amt DESC, i_category`, dayRange4},
		{`SELECT p_channel_email, p_channel_tv, COUNT(*) AS cnt
			FROM store_sales, promotion
			WHERE ss_promo_sk = p_promo_sk AND ss_sold_date_sk = %s
			GROUP BY p_channel_email, p_channel_tv ORDER BY p_channel_email, p_channel_tv`, days},
		{`SELECT i_brand, s_state, SUM(ss_sales_price) AS rev
			FROM store_sales, item, store, date_dim
			WHERE ss_item_sk = i_item_sk AND ss_store_sk = s_store_sk AND ss_sold_date_sk = d_date_sk
			  AND d_moy = %s AND i_brand = %s
			GROUP BY i_brand, s_state ORDER BY s_state`, cross(ints(1, 12), brands)},
	}
}

func sqlLit(v any) string {
	if s, ok := v.(string); ok {
		return "'" + s + "'"
	}
	return fmt.Sprint(v)
}

// adhoc renders combo c of shape sh as literal SQL.
func (sh biShape) adhoc(c int) string {
	args := make([]any, len(sh.combos[c]))
	for i, v := range sh.combos[c] {
		args[i] = sqlLit(v)
	}
	return fmt.Sprintf(sh.sql, args...)
}

// execute renders combo c as an EXECUTE of the shape prepared as name.
func (sh biShape) execute(name string, c int) string {
	args := make([]string, len(sh.combos[c]))
	for i, v := range sh.combos[c] {
		args[i] = sqlLit(v)
	}
	return "EXECUTE " + name + " (" + strings.Join(args, ", ") + ")"
}

// biWarmPart selects the warm-up's stream; the window uses part 0.
const biWarmPart = 15

// biReq is one request of the stream: a statement and how it is sent.
type biReq struct {
	Shape, Combo int
	Prepared     bool
}

// biStream draws n requests: a uniform shape, then a Zipf-ranked literal
// combination within it. The ranking is one fixed permutation, so every
// seed shares the same hot set and seeds differ only in the sequence
// drawn from it; part selects one of a seed's streams (the warm-up's or
// the measured window's).
func biStream(shapes []biShape, seed int64, part, n int) []biReq {
	prng := rand.New(rand.NewSource(1))
	perms := make([][]int, len(shapes))
	for i, sh := range shapes {
		perms[i] = prng.Perm(len(sh.combos))
	}
	rng := rand.New(rand.NewSource(seed*16 + int64(part)))
	zipfs := make([]*rand.Zipf, len(shapes))
	for i, sh := range shapes {
		zipfs[i] = rand.NewZipf(rng, 1.1, 1, uint64(len(sh.combos)-1))
	}
	out := make([]biReq, n)
	for i := range out {
		s := rng.Intn(len(shapes))
		out[i] = biReq{Shape: s, Combo: perms[s][zipfs[s].Uint64()], Prepared: rng.Float64() < biPreparedShare}
	}
	return out
}

type biEnv struct {
	wh      *hive.Warehouse
	shapes  []biShape
	senders []*hive.Session
	seed    int64
	oracle  map[[2]int]uint64
}

func openBI(o *options) (benchEnv, error) {
	wh, err := hive.Open(hive.Config{MemoryBytes: 256 << 20})
	if err != nil {
		return nil, err
	}
	e := &biEnv{wh: wh, shapes: biShapes(), seed: o.seed}
	s := wh.Session()
	defer s.Close()
	exec := func(q string) error { _, err := s.Exec(q); return err }
	if err := bench.SetupTPCDS(exec, bench.SmallTPCDS()); err != nil {
		e.close()
		return nil, fmt.Errorf("load: %w", err)
	}
	for _, q := range []string{
		`CREATE RESOURCE PLAN serving`,
		`CREATE POOL serving.bi WITH alloc_fraction=0.8, query_parallelism=1, memory_fraction=0.8`,
		`CREATE POOL serving.etl WITH alloc_fraction=0.2, query_parallelism=4, memory_fraction=0.2`,
		`CREATE APPLICATION MAPPING dashboard IN serving TO bi`,
		`ALTER PLAN serving SET DEFAULT POOL = etl`,
		`ALTER RESOURCE PLAN serving ENABLE ACTIVATE`,
	} {
		if err := exec(q); err != nil {
			e.close()
			return nil, fmt.Errorf("resource plan: %w", err)
		}
	}
	for i := 0; i < 2; i++ {
		ss := wh.Session()
		ss.SetUser("analyst", "dashboard")
		// One worker per statement: two senders already fill both CPUs,
		// and a miss fanned out over both would stall the other sender's
		// cache hits behind it.
		ss.SetConf("hive.parallelism", "1")
		e.senders = append(e.senders, ss)
		for j, sh := range e.shapes {
			if _, err := ss.Exec(fmt.Sprintf("PREPARE bi%d AS ", j) + sh.adhoc(0)); err != nil {
				e.close()
				return nil, fmt.Errorf("prepare bi%d: %w", j, err)
			}
		}
	}
	return e, nil
}

func (e *biEnv) warehouse() *hive.Warehouse { return e.wh }

func (e *biEnv) close() {
	for _, s := range e.senders {
		s.Close()
	}
	e.wh.Close()
}

func (e *biEnv) text(r biReq) string {
	sh := e.shapes[r.Shape]
	if r.Prepared {
		return sh.execute(fmt.Sprintf("bi%d", r.Shape), r.Combo)
	}
	return sh.adhoc(r.Combo)
}

// warm runs a closed-loop burst over the measured window's hot set, but
// a stream of its own, filling the plan and result caches.
func (e *biEnv) warm() error {
	for i, r := range biStream(e.shapes, e.seed, biWarmPart, 500) {
		if _, err := e.senders[i%2].Exec(e.text(r)); err != nil {
			return err
		}
	}
	return nil
}

// prepareOracle hashes every distinct statement of the measured stream
// with the plan and result caches off.
func (e *biEnv) prepareOracle(reqs []biReq) error {
	s := e.wh.Session()
	defer s.Close()
	s.SetConf("hive.query.plan.cache.enabled", "false")
	s.SetConf("hive.query.results.cache.enabled", "false")
	if e.oracle == nil {
		e.oracle = map[[2]int]uint64{}
	}
	for _, r := range reqs {
		k := [2]int{r.Shape, r.Combo}
		if _, ok := e.oracle[k]; ok {
			continue
		}
		q := e.shapes[r.Shape].adhoc(r.Combo)
		res, err := s.Exec(q)
		if err != nil {
			return fmt.Errorf("oracle: %w", err)
		}
		e.oracle[k] = rowHash(res.Rows, hasOrderBy(q))
	}
	return nil
}

func (e *biEnv) run(d time.Duration, x *executor) (*window, error) {
	reqs := biStream(e.shapes, e.seed, 0, int(biRate*d.Seconds()))
	if err := e.prepareOracle(reqs); err != nil {
		return nil, err
	}
	x.pool = "bi"
	type result struct {
		at, lat, lag time.Duration
		lagged       bool
		err          bool
		hash         uint64
	}
	res := make([]result, len(reqs))
	texts := make([]string, len(reqs))
	for i, r := range reqs {
		texts[i] = e.text(r)
	}
	class := make([]string, len(e.shapes))
	ordered := make([]bool, len(e.shapes))
	for i, sh := range e.shapes {
		class[i] = fmt.Sprintf("bi%d", i)
		ordered[i] = hasOrderBy(sh.sql)
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	start := time.Now().Add(10 * time.Millisecond)
	m := startMeter(x, start, windowSlices, d)
	period := time.Second * biBurst / biRate
	for _, s := range e.senders {
		wg.Add(1)
		go func(s *hive.Session) {
			defer wg.Done()
			// The senders take the requests in order, whichever is free
			// first, so a burst is served by both.
			for i := int(next.Add(1) - 1); i < len(reqs); i = int(next.Add(1) - 1) {
				due := start.Add(time.Duration(i/biBurst) * period)
				if wait := time.Until(due); wait > 0 {
					// The timer's overshoot is the generator running late,
					// not the warehouse: it is reported as driver.gen_lag_ms.
					time.Sleep(wait)
					res[i].lag, res[i].lagged = time.Since(due), true
				}
				// A request is timed from when its sender sends it, so the
				// wait behind the earlier requests of its burst is left out.
				sent := time.Now()
				out, err := x.exec(s, class[reqs[i].Shape], texts[i])
				res[i].lat = time.Since(sent)
				res[i].at = time.Since(start)
				res[i].err = err != nil
				if err == nil {
					// Hashed here, after the timing: keeping every result
					// until the window ends would grow the heap the
					// collector scans during the window.
					res[i].hash = rowHash(out.Rows, ordered[reqs[i].Shape])
				}
			}
		}(s)
	}
	wg.Wait()
	w := &window{}
	m.stop(w)
	for i, r := range res {
		q := reqs[i]
		w.Attempted++
		w.Reads = append(w.Reads, sample{r.at, r.lat})
		w.addClass(class[q.Shape], r.lat)
		if r.lagged {
			w.GenLag = append(w.GenLag, r.lag)
		}
		switch {
		case r.err:
			w.Failed++
		case r.hash != e.oracle[[2]int{q.Shape, q.Combo}]:
			w.Wrong++
			w.WrongWhat = append(w.WrongWhat, texts[i])
		}
	}
	return w, nil
}
