package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	hive "repro"
	"repro/internal/acid"
	"repro/internal/bench"
	"repro/internal/metastore"
	"repro/internal/orc"
)

// acidLive is the number of live orders the writer keeps the table at.
const acidLive = 2000

// acidStage is the fixed MERGE source: stage row k carries quantity and
// amount; a MERGE at offset off matches ids off..off+9 and inserts the
// ten ids after them.
const acidStage = 20

// acidCheckEvery is how many write operations pass between the writer's
// COUNT/SUM reads checked against its model.
const acidCheckEvery = 20

// acidModel is the writer's own account of the orders table: ids are the
// contiguous range [lo, hi], each with a quantity and an amount in cents.
type acidModel struct {
	lo, hi int64
	qty    map[int64]int64
	cents  map[int64]int64
}

func (m *acidModel) count() int64 { return m.hi - m.lo + 1 }

func (m *acidModel) sums() (qty, cents int64) {
	for id := m.lo; id <= m.hi; id++ {
		qty += m.qty[id]
		cents += m.cents[id]
	}
	return qty, cents
}

func formatCents(c int64) string { return fmt.Sprintf("%d.%02d", c/100, c%100) }

// orderRow renders one orders row; the dimension keys follow from the id.
func orderRow(id, qty, cents int64) string {
	sc := bench.SmallTPCDS()
	return fmt.Sprintf("(%d, %d, %d, %d, %d, %s)", id,
		1+id*7%int64(sc.Customers), 1+id*13%int64(sc.Items), 1+id%int64(sc.Stores), qty, formatCents(cents))
}

// acidReads are the reader's dashboard joins of orders with dimensions.
func acidReads() []string {
	var out []string
	out = append(out,
		`SELECT s_state, COUNT(*) AS cnt, SUM(o_amount) AS amt FROM orders, store
			WHERE o_store_sk = s_store_sk GROUP BY s_state ORDER BY s_state`,
		`SELECT i_category, SUM(o_qty) AS qty FROM orders, item
			WHERE o_item_sk = i_item_sk GROUP BY i_category ORDER BY i_category`)
	for _, y := range []int{1960, 1970, 1980, 1990} {
		out = append(out, fmt.Sprintf(`SELECT c_preferred, COUNT(*) AS cnt FROM orders, customer
			WHERE o_customer_sk = c_customer_sk AND c_birth_year > %d
			GROUP BY c_preferred ORDER BY c_preferred`, y))
	}
	for _, c := range []string{"Sports", "Books", "Home", "Electronics", "Music", "Shoes"} {
		out = append(out, fmt.Sprintf(`SELECT i_brand, SUM(o_amount) AS amt FROM orders, item
			WHERE o_item_sk = i_item_sk AND i_category = '%s'
			GROUP BY i_brand ORDER BY amt DESC, i_brand LIMIT 5`, c))
	}
	for _, st := range []string{"CA", "NY", "TX", "WA"} {
		out = append(out, fmt.Sprintf(`SELECT s_store_name, MAX(o_id) AS newest FROM orders, store
			WHERE o_store_sk = s_store_sk AND s_state = '%s'
			GROUP BY s_store_name ORDER BY s_store_name`, st))
	}
	return out
}

type acidEnv struct {
	wh     *hive.Warehouse
	writer *hive.Session
	reader *hive.Session
	reads  []string
	model  acidModel
	stage  [acidStage][2]int64 // qty, cents per stage row
	wrng   *rand.Rand
	seed   int64

	table     *metastore.Table
	dataCols  []orc.Column
	deltaRows int64 // rows written to delta stores since the last major compaction
	baseRows  int64 // live rows the newest base holds
	readMu    sync.RWMutex
	stats     acidStats
	writeOps  int
}

func openACID(o *options) (benchEnv, error) {
	wh, err := hive.Open(hive.Config{})
	if err != nil {
		return nil, err
	}
	e := &acidEnv{wh: wh, writer: wh.Session(), reader: wh.Session(), reads: acidReads(), seed: o.seed}
	exec := func(q string) error { _, err := e.writer.Exec(q); return err }
	if err := bench.SetupTPCDS(exec, bench.SmallTPCDS()); err != nil {
		e.close()
		return nil, fmt.Errorf("load: %w", err)
	}
	rng := rand.New(rand.NewSource(o.seed))
	e.model = acidModel{lo: 1, hi: acidLive, qty: map[int64]int64{}, cents: map[int64]int64{}}
	ddl := []string{
		`CREATE TABLE orders (o_id BIGINT, o_customer_sk BIGINT, o_item_sk BIGINT,
			o_store_sk BIGINT, o_qty INT, o_amount DECIMAL(9,2))`,
		`CREATE TABLE orders_stage (k BIGINT, cust BIGINT, item BIGINT, store BIGINT,
			qty INT, amt DECIMAL(9,2))`,
	}
	for _, q := range ddl {
		if err := exec(q); err != nil {
			e.close()
			return nil, err
		}
	}
	var rows []string
	for id := int64(1); id <= acidLive; id++ {
		e.model.qty[id], e.model.cents[id] = 1+rng.Int63n(10), 100+rng.Int63n(99900)
		rows = append(rows, orderRow(id, e.model.qty[id], e.model.cents[id]))
		if len(rows) == 500 || id == acidLive {
			if err := exec("INSERT INTO orders VALUES " + strings.Join(rows, ", ")); err != nil {
				e.close()
				return nil, err
			}
			rows = rows[:0]
		}
	}
	var stage []string
	for k := range e.stage {
		e.stage[k] = [2]int64{1 + rng.Int63n(10), 100 + rng.Int63n(99900)}
		// orderRow's id column is the stage key here; MERGE adds the offset.
		stage = append(stage, orderRow(int64(k), e.stage[k][0], e.stage[k][1]))
	}
	if err := exec("INSERT INTO orders_stage VALUES " + strings.Join(stage, ", ")); err != nil {
		e.close()
		return nil, err
	}
	for _, t := range []string{"orders", "orders_stage"} {
		if err := exec("ANALYZE TABLE " + t + " COMPUTE STATISTICS"); err != nil {
			e.close()
			return nil, err
		}
	}
	e.table, err = wh.Server().MS.GetTable("default", "orders")
	if err != nil {
		e.close()
		return nil, err
	}
	for _, c := range e.table.Cols {
		e.dataCols = append(e.dataCols, orc.Column{Name: c.Name, Type: c.Type})
	}
	e.deltaRows = acidLive
	e.wrng = acidWriterRand(o.seed)
	return e, nil
}

// acidWriterRand draws the writer's operation mix.
func acidWriterRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed ^ 0x5eed)) }

func (e *acidEnv) warehouse() *hive.Warehouse { return e.wh }

func (e *acidEnv) close() {
	e.writer.Close()
	e.reader.Close()
	e.wh.Close()
}

// nextWrite picks the writer's next statement and applies it to the
// model. Deletes of the oldest orders bring the live count back to
// acidLive whenever inserts or a MERGE raised it, so the table reaches a
// steady state.
func (e *acidEnv) nextWrite() (class, text string, rows int64) {
	m := &e.model
	rng := e.wrng
	if n := m.count() - acidLive; n > 0 {
		text = fmt.Sprintf("DELETE FROM orders WHERE o_id < %d", m.lo+n)
		for id := m.lo; id < m.lo+n; id++ {
			delete(m.qty, id)
			delete(m.cents, id)
		}
		m.lo += n
		return "delete", text, n
	}
	switch r := rng.Float64(); {
	case r < 0.4:
		var vals []string
		for i := 0; i < 20; i++ {
			m.hi++
			m.qty[m.hi], m.cents[m.hi] = 1+rng.Int63n(10), 100+rng.Int63n(99900)
			vals = append(vals, orderRow(m.hi, m.qty[m.hi], m.cents[m.hi]))
		}
		return "insert", "INSERT INTO orders VALUES " + strings.Join(vals, ", "), 20
	case r < 0.8:
		a := m.lo + rng.Int63n(m.count()-4)
		for id := a; id <= a+4; id++ {
			m.qty[id]++
			m.cents[id] += 125
		}
		return "update", fmt.Sprintf(
			"UPDATE orders SET o_qty = o_qty + 1, o_amount = o_amount + 1.25 WHERE o_id BETWEEN %d AND %d", a, a+4), 10
	default:
		off := m.hi - 9
		for k := int64(0); k < acidStage; k++ {
			m.qty[off+k], m.cents[off+k] = e.stage[k][0], e.stage[k][1]
		}
		m.hi = off + acidStage - 1
		return "merge", fmt.Sprintf(`MERGE INTO orders t USING orders_stage s ON t.o_id = s.k + %d
			WHEN MATCHED THEN UPDATE SET o_qty = s.qty, o_amount = s.amt
			WHEN NOT MATCHED THEN INSERT VALUES (s.k + %d, s.cust, s.item, s.store, s.qty, s.amt)`, off, off), 30
	}
}

// compact plays Hive's compactor initiator after a write transaction:
// DefaultPolicy decides from the store shape, the compactor merges, and
// the superseded directories are cleaned once no read is in flight.
func (e *acidEnv) compact() error {
	fs := e.wh.Server().FS
	loc := e.table.Location
	bases, deltas, dels, err := acid.ListStores(fs, loc)
	if err != nil {
		return err
	}
	e.stats.StoreDirsMax = max(e.stats.StoreDirsMax, len(bases)+len(deltas)+len(dels))
	kind := acid.DefaultPolicy().Decide(len(deltas)+len(dels), e.deltaRows, e.baseRows)
	if kind == acid.CompactNone {
		return nil
	}
	start := time.Now()
	valid := e.wh.Server().MS.Txns().CompactorValidWriteIds(e.table.FullName())
	c := acid.NewCompactor(fs, loc, e.dataCols, orc.WriterOptions{})
	if kind == acid.CompactMajor {
		err = c.Major(valid)
		e.deltaRows, e.baseRows = 0, e.model.count()
	} else {
		err = c.Minor(valid)
	}
	if err != nil {
		return fmt.Errorf("compaction: %w", err)
	}
	e.readMu.Lock()
	err = acid.Clean(fs, loc)
	e.readMu.Unlock()
	e.stats.Compactions++
	e.stats.CompactTime += time.Since(start)
	return err
}

// check compares the table's COUNT/SUMs with the writer's model.
func (e *acidEnv) check() (bool, error) {
	res, err := e.writer.Exec(`SELECT COUNT(*), SUM(o_qty), SUM(o_amount) FROM orders`)
	if err != nil {
		return false, err
	}
	qty, cents := e.model.sums()
	want := fmt.Sprintf("%d|%d|%s", e.model.count(), qty, formatCents(cents))
	return res.String() == want, nil
}

// warm runs each dashboard read once and a burst of writes.
func (e *acidEnv) warm() error {
	for _, q := range e.reads {
		if _, err := e.reader.Exec(q); err != nil {
			return err
		}
	}
	for i := 0; i < 30; i++ {
		_, text, rows := e.nextWrite()
		if _, err := e.writer.Exec(text); err != nil {
			return err
		}
		e.deltaRows += rows
		if err := e.compact(); err != nil {
			return err
		}
	}
	if ok, err := e.check(); err != nil || !ok {
		return fmt.Errorf("warm-up check failed: ok=%v err=%v", ok, err)
	}
	return nil
}

func (e *acidEnv) run(d time.Duration, x *executor) (*window, error) {
	w := &window{}
	e.stats = acidStats{}
	var mu sync.Mutex // guards w between the two sessions
	var wg sync.WaitGroup
	var werr error
	start := time.Now()
	deadline := start.Add(d)
	m := startMeter(x, start, windowSlices, d)
	wg.Add(2)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(e.seed * 16))
		for time.Now().Before(deadline) {
			q := e.reads[rng.Intn(len(e.reads))]
			e.readMu.RLock()
			t0 := time.Now()
			_, err := x.exec(e.reader, "read", q)
			lat := time.Since(t0)
			e.readMu.RUnlock()
			mu.Lock()
			w.Attempted++
			w.Reads = append(w.Reads, sample{m.since(), lat})
			w.addClass("read", lat)
			if err != nil {
				w.Failed++
			}
			mu.Unlock()
		}
	}()
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			class, text, rows := e.nextWrite()
			t0 := time.Now()
			_, err := x.exec(e.writer, class, text)
			lat := time.Since(t0)
			mu.Lock()
			w.Attempted++
			w.Writes = append(w.Writes, sample{m.since(), lat})
			w.addClass(class, lat)
			if err != nil {
				w.Failed++
			}
			mu.Unlock()
			if err != nil {
				werr = fmt.Errorf("%s: %w", class, err) // the model no longer describes the table
				return
			}
			e.deltaRows += rows
			if err := e.compact(); err != nil {
				werr = err
				return
			}
			e.writeOps++
			if e.writeOps%acidCheckEvery == 0 {
				ok, err := e.check()
				mu.Lock()
				w.Attempted++
				if err != nil {
					w.Failed++
				} else if !ok {
					w.Wrong++
					w.WrongWhat = append(w.WrongWhat, fmt.Sprintf("COUNT/SUM after %d writes", e.writeOps))
				}
				mu.Unlock()
			}
		}
	}()
	wg.Wait()
	m.stop(w)
	w.Acid = e.stats
	if werr != nil {
		return w, werr
	}
	ok, err := e.check()
	w.Attempted++
	if err != nil {
		w.Failed++
	} else if !ok {
		w.Wrong++
		w.WrongWhat = append(w.WrongWhat, fmt.Sprintf("COUNT/SUM after %d writes", e.writeOps))
	}
	return w, nil
}
