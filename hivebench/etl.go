package main

import (
	"fmt"
	"math/rand"
	"time"

	hive "repro"
	"repro/internal/bench"
	"repro/internal/types"
)

// etlBudget is the per-query memory budget (hive.query.max.memory): the
// high-cardinality aggregations and joins spill against it, the rest fit.
const etlBudget = 1 << 20

// etlCacheBytes is the LLAP chunk cache capacity; the decoded-vector
// cache defaults to half of it. Both are far below the decoded data.
const etlCacheBytes = 1 << 20

// etlScale is 5× SmallTPCDS over the same 24 daily partitions.
func etlScale() bench.TPCDSScale {
	sc := bench.SmallTPCDS()
	sc.SalesRows *= 5
	sc.ReturnsRows *= 5
	sc.Items *= 5
	sc.Customers *= 5
	sc.Stores *= 5
	return sc
}

type etlEnv struct {
	wh      *hive.Warehouse
	s       *hive.Session
	queries []bench.TPCDSQuery
	seed    int64
}

func openETL(o *options) (benchEnv, error) {
	wh, err := hive.Open(hive.Config{CacheBytes: etlCacheBytes, DiskLatency: true})
	if err != nil {
		return nil, err
	}
	s := wh.Session()
	e := &etlEnv{wh: wh, s: s, queries: bench.TPCDSQueries(), seed: o.seed}
	if err := bench.SetupTPCDS(func(q string) error { _, err := s.Exec(q); return err }, etlScale()); err != nil {
		e.close()
		return nil, fmt.Errorf("load: %w", err)
	}
	s.SetConf("hive.profile", "3.1")
	s.SetConf("hive.query.results.cache.enabled", "false")
	s.SetConf("hive.query.max.memory", fmt.Sprint(etlBudget))
	return e, nil
}

func (e *etlEnv) warehouse() *hive.Warehouse { return e.wh }

func (e *etlEnv) close() {
	e.s.Close()
	e.wh.Close()
}

// passOrder is the query order of every pass: one fixed permutation,
// rotated to start at a seeded offset. A query's latency depends on what
// ran before it (which chunks and vectors the 1 MiB caches still hold), so
// the rotation keeps each query's predecessor, and its cache state, the
// same for every seed; a fresh permutation per seed moved the median
// query latency by a quarter between seeds.
func passOrder(seed int64, n int) []int {
	perm := rand.New(rand.NewSource(1)).Perm(n)
	off := int(uint64(seed) % uint64(n))
	return append(perm[off:len(perm):len(perm)], perm[:off]...)
}

// warm runs one pass in the measured order.
func (e *etlEnv) warm() error {
	for _, qi := range passOrder(e.seed, len(e.queries)) {
		q := e.queries[qi]
		if _, err := e.s.Exec(q.SQL); err != nil {
			return fmt.Errorf("%s: %w", q.Name, err)
		}
	}
	return nil
}

// etlPasses is how many whole passes a window of d measures: one per
// 8 s, at least two. A pass took 9–12 s on the 2-CPU host the benchmark
// was defined on, so a short window runs over d. Whole passes make every
// run execute each query equally often, so the figures do not depend on
// where a deadline cuts a pass; each pass is one slice of the window.
func etlPasses(d time.Duration) int { return max(2, int(d.Seconds())/8) }

// run measures whole passes in seeded orders, then checks each answer
// against the oracle configuration.
func (e *etlEnv) run(d time.Duration, x *executor) (*window, error) {
	passes := etlPasses(d)
	type answer struct {
		q    int
		rows [][]types.Datum // checked once the window is over
	}
	var answers []answer
	w := &window{}
	m := startMeter(x, time.Now(), 1, d)
	for p := 0; p < passes; p++ {
		if p > 0 {
			m.mark()
		}
		for _, qi := range passOrder(e.seed, len(e.queries)) {
			q := e.queries[qi]
			t0 := time.Now()
			res, err := x.exec(e.s, q.Name, q.SQL)
			lat := time.Since(t0)
			w.Reads = append(w.Reads, sample{m.since(), lat})
			w.addClass(q.Name, lat)
			w.Attempted++
			if err != nil {
				w.Failed++
				continue
			}
			answers = append(answers, answer{qi, res.Rows})
		}
	}
	m.stop(w)
	want, err := e.oracle()
	if err != nil {
		return nil, err
	}
	for _, a := range answers {
		if !want[a.q].accepts(rowLines(a.rows)) {
			w.Wrong++
			w.WrongWhat = append(w.WrongWhat, e.queries[a.q].Name)
		}
	}
	return w, nil
}

// etlAnswer is the oracle's answer to one query.
type etlAnswer struct {
	ordered bool
	// rows is the answer. For an ordered query it is the answer without
	// its LIMIT, in order, with each row's ORDER BY key in keys.
	rows []string
	keys []string
	size int // rows in a right answer: the LIMIT, or all of them
}

// accepts compares an answer with the oracle's: as a multiset without
// ORDER BY; with one, row by row, except that rows tied on the ORDER BY
// key may come in any order and, where the LIMIT cuts a run of tied rows,
// any of them may fill the places left.
func (a etlAnswer) accepts(got []string) bool {
	if !a.ordered {
		return sameMultiset(got, a.rows)
	}
	if len(got) != a.size {
		return false
	}
	for s := 0; s < a.size; {
		e := s + 1
		for e < len(a.rows) && a.keys[e] == a.keys[s] {
			e++
		}
		if !subMultiset(got[s:min(e, a.size)], a.rows[s:e]) {
			return false
		}
		s = e
	}
	return true
}

// oracle answers every query once in the byte-identity reference
// configuration: DOP 1, elevator off, unlimited memory budget.
func (e *etlEnv) oracle() ([]etlAnswer, error) {
	s := e.wh.Session()
	defer s.Close()
	s.SetConf("hive.query.results.cache.enabled", "false")
	s.SetConf("hive.parallelism", "1")
	s.SetConf("hive.llap.elevator", "false")
	s.SetConf("hive.query.max.memory", "0")
	out := make([]etlAnswer, len(e.queries))
	for i, q := range e.queries {
		a, err := oracleAnswer(s, q.SQL)
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", q.Name, err)
		}
		out[i] = a
	}
	return out, nil
}

// oracleAnswer answers one statement. An ordered statement runs without
// its LIMIT, and each row's key is read from the output columns its ORDER
// BY items name; items that name none (an expression, a column not
// selected) are added to the select list of a second run, whose rows must
// be the first run's with the key columns appended.
func oracleAnswer(s *hive.Session, sql string) (etlAnswer, error) {
	items := orderItems(sql)
	text, limit := splitLimit(sql)
	if items == nil {
		text, limit = sql, -1
	}
	res, err := s.Exec(text)
	if err != nil {
		return etlAnswer{}, err
	}
	a := etlAnswer{ordered: items != nil, rows: rowLines(res.Rows), size: len(res.Rows)}
	if items == nil {
		return a, nil
	}
	if limit >= 0 {
		a.size = min(limit, a.size)
	}
	width := len(res.Columns)
	at := make([]int, len(items)) // key column of each item
	var extra []string
	for k, it := range items {
		if at[k] = columnOf(res.Columns, it); at[k] < 0 {
			at[k] = width + len(extra)
			extra = append(extra, it)
		}
	}
	rows := res.Rows
	if len(extra) > 0 {
		keyed, err := withKeys(text, extra)
		if err != nil {
			return etlAnswer{}, err
		}
		kres, err := s.Exec(keyed)
		if err != nil {
			return etlAnswer{}, fmt.Errorf("%s: %w", keyed, err)
		}
		rows = kres.Rows
		proj := make([][]types.Datum, len(rows))
		for i, r := range rows {
			proj[i] = r[:width]
		}
		if a.rows = rowLines(proj); !sameMultiset(a.rows, rowLines(res.Rows)) {
			return etlAnswer{}, fmt.Errorf("%s: rows differ from the statement's own", keyed)
		}
	}
	key := make([]types.Datum, len(at))
	for _, r := range rows {
		for k, c := range at {
			key[k] = r[c]
		}
		a.keys = append(a.keys, rowLines([][]types.Datum{key})[0])
	}
	return a, nil
}
