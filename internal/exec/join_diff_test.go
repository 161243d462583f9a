package exec

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/vector"
)

// joinDiffCase is one key shape of the differential join test: the left and
// right key column types (none for a nested-loop join) and how key values
// are drawn.
type joinDiffCase struct {
	name   string
	lk, rk []types.T
	// hot appends this many build rows sharing one key, and three probe
	// rows with it, so one probe row's matches outrun an output batch.
	hot int
	// nan mixes NaN into DOUBLE keys.
	nan bool
	// probe, build are the row counts before the hot rows.
	probe, build int
}

var joinDiffCases = []joinDiffCase{
	{name: "int=bigint", lk: []types.T{types.TInt}, rk: []types.T{types.TBigint}, hot: 1100, probe: 300, build: 200},
	{name: "decimal=double", lk: []types.T{types.TDecimal(9, 2)}, rk: []types.T{types.TDouble}, probe: 300, build: 200},
	{name: "bigint=decimal", lk: []types.T{types.TBigint}, rk: []types.T{types.TDecimal(9, 2)}, probe: 300, build: 200},
	{name: "double=double", lk: []types.T{types.TDouble}, rk: []types.T{types.TDouble}, nan: true, probe: 300, build: 200},
	{name: "int,string=bigint,string", lk: []types.T{types.TInt, types.TString}, rk: []types.T{types.TBigint, types.TString}, probe: 300, build: 200},
	{name: "nested", probe: 40, build: 30},
}

// joinDiffKinds is every join kind the executor runs.
var joinDiffKinds = []plan.JoinKind{plan.Inner, plan.Left, plan.Right, plan.Full, plan.Cross, plan.Semi, plan.Anti, plan.Single}

// keyDatum draws a key value of type t from a small domain with duplicates
// and NULLs. Decimal and double values step by 0.5, so they meet integers
// only on whole values.
func keyDatum(rng *rand.Rand, t types.T, nan bool) types.Datum {
	if rng.Intn(10) == 0 {
		return types.NullOf(t.Kind)
	}
	k := int64(rng.Intn(12))
	switch t.Kind {
	case types.Int32:
		return types.NewInt(int32(k))
	case types.Int64:
		return types.NewBigint(k)
	case types.Decimal:
		return types.NewDecimal(k*50, 2)
	case types.Float64:
		if nan && rng.Intn(8) == 0 {
			return types.NewDouble(math.NaN())
		}
		return types.NewDouble(float64(k) / 2)
	default:
		return types.NewString(fmt.Sprintf("s%d", k%4))
	}
}

// hotDatum is the key value shared by a case's hot rows.
func hotDatum(t types.T) types.Datum { return wholeDatum(t, 99) }

// wholeDatum is the whole number v as a key of type t.
func wholeDatum(t types.T, v int64) types.Datum {
	switch t.Kind {
	case types.Int32:
		return types.NewInt(int32(v))
	case types.Int64:
		return types.NewBigint(v)
	case types.Decimal:
		return types.NewDecimal(v*100, 2)
	case types.Float64:
		return types.NewDouble(float64(v))
	default:
		return types.NewString(fmt.Sprintf("w%d", v))
	}
}

// joinDiffRows builds one side: key columns, then a nullable INT payload
// the residual compares, then a unique row id.
func joinDiffRows(rng *rand.Rand, keys []types.T, n, hot int, nan bool) ([]types.T, [][]types.Datum) {
	ts := append(append([]types.T{}, keys...), types.TInt, types.TInt)
	rows := make([][]types.Datum, 0, n+hot)
	for i := 0; i < n+hot; i++ {
		row := make([]types.Datum, 0, len(ts))
		for _, t := range keys {
			if i >= n {
				row = append(row, hotDatum(t))
			} else {
				row = append(row, keyDatum(rng, t, nan))
			}
		}
		v := types.NewInt(int32(rng.Intn(20)))
		if rng.Intn(12) == 0 {
			v = types.NullOf(types.Int32)
		}
		rows = append(rows, append(row, v, types.NewInt(int32(i))))
	}
	return ts, rows
}

// diffKeyHash is the join's hash of one key value: a join only compares
// keys whose hashes agree (NaN hashes as itself, so it meets only NaN).
func diffKeyHash(t types.T, d types.Datum) uint64 {
	v := vector.New(t, 1)
	v.Set(0, d)
	return v.HashAt(0)
}

// oracleJoin is the naive nested-loop join the hash join must reproduce:
// every probe row in order against every build row in order. Keys match
// when none is NULL, their hashes agree and Datum.Compare is 0; the
// residual is the Go predicate v < w under SQL NULL semantics. Unmatched
// build rows of right/full joins follow, in build order.
func oracleJoin(kind plan.JoinKind, lt, rt []types.T, left, right [][]types.Datum, nk int, residual bool) ([][]types.Datum, error) {
	lw := len(lt)
	match := func(l, r []types.Datum) bool {
		for k := 0; k < nk; k++ {
			a, b := l[k], r[k]
			if a.Null || b.Null || diffKeyHash(lt[k], a) != diffKeyHash(rt[k], b) || a.Compare(b) != 0 {
				return false
			}
		}
		if residual {
			v, w := l[lw-2], r[len(rt)-2]
			return !v.Null && !w.Null && v.Compare(w) < 0
		}
		return true
	}
	nulls := func(ts []types.T) []types.Datum {
		out := make([]types.Datum, len(ts))
		for i, t := range ts {
			out[i] = types.NullOf(t.Kind)
		}
		return out
	}
	concat := func(a, b []types.Datum) []types.Datum {
		return append(append([]types.Datum{}, a...), b...)
	}
	var out [][]types.Datum
	matched := make([]bool, len(right))
	for _, l := range left {
		found := 0
		for ri, r := range right {
			if !match(l, r) {
				continue
			}
			found++
			matched[ri] = true
			switch kind {
			case plan.Semi, plan.Anti:
			default:
				out = append(out, concat(l, r))
			}
		}
		switch kind {
		case plan.Semi:
			if found > 0 {
				out = append(out, l)
			}
		case plan.Anti:
			if found == 0 {
				out = append(out, l)
			}
		case plan.Single:
			if found > 1 {
				return nil, fmt.Errorf("more than one row")
			}
			fallthrough
		case plan.Left, plan.Full:
			if found == 0 {
				out = append(out, concat(l, nulls(rt)))
			}
		}
	}
	if kind == plan.Right || kind == plan.Full {
		for ri, r := range right {
			if !matched[ri] {
				out = append(out, concat(nulls(lt), r))
			}
		}
	}
	return out, nil
}

// diffJoin assembles a HashJoinOp over the two sides: key i of the left
// joins key i of the right, and the residual is left.v < right.w.
func diffJoin(t *testing.T, kind plan.JoinKind, lt, rt []types.T, nk int, residual bool, ctx *Context) *HashJoinOp {
	t.Helper()
	j := &HashJoinOp{Kind: kind, Ctx: ctx}
	for k := 0; k < nk; k++ {
		le, err := Compile(&plan.ColRef{Idx: k, T: lt[k]}, lt)
		if err != nil {
			t.Fatal(err)
		}
		re, err := Compile(&plan.ColRef{Idx: k, T: rt[k]}, rt)
		if err != nil {
			t.Fatal(err)
		}
		j.LeftKeys = append(j.LeftKeys, le)
		j.RightKeys = append(j.RightKeys, re)
	}
	if residual {
		combined := append(append([]types.T{}, lt...), rt...)
		cond := &plan.Func{Op: "<", T: types.TBool, Args: []plan.Rex{
			&plan.ColRef{Idx: len(lt) - 2, T: types.TInt},
			&plan.ColRef{Idx: len(lt) + len(rt) - 2, T: types.TInt},
		}}
		e, err := Compile(cond, combined)
		if err != nil {
			t.Fatal(err)
		}
		j.Residual = e
	}
	return j
}

// joinDiffConfig is one execution setting of the differential test.
type joinDiffConfig struct {
	name   string
	dop    int
	budget int64 // 0: unlimited, in memory
	shared bool  // two probe clones over one shared build
}

var joinDiffConfigs = []joinDiffConfig{
	{name: "mem/dop1", dop: 1},
	{name: "mem/dop2", dop: 2},
	{name: "grace/dop1", dop: 1, budget: 2048},
	{name: "grace/dop2", dop: 2, budget: 2048},
	{name: "shared/mem", dop: 2, shared: true},
	{name: "shared/grace", dop: 2, budget: 2048, shared: true},
}

func renderRows(rows [][]types.Datum) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		parts := make([]string, len(row))
		for c, d := range row {
			parts[c] = d.String()
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

// runDiffJoin executes one join under cfg. A shared configuration splits
// the probe input between two clones sharing one build and drains them
// concurrently, the way parallel probe pipelines run.
func runDiffJoin(t *testing.T, kind plan.JoinKind, lt, rt []types.T, left, right [][]types.Datum, nk int, residual bool, cfg joinDiffConfig, batch int) ([][]types.Datum, *spillEnv, error) {
	t.Helper()
	env := newSpillEnv(cfg.budget)
	env.ctx.DOP = cfg.dop
	if !cfg.shared {
		j := diffJoin(t, kind, lt, rt, nk, residual, env.ctx)
		j.Left = &rowsOp{ts: lt, rows: left, batch: batch}
		j.Right = &rowsOp{ts: rt, rows: right, batch: batch}
		rows, err := Drain(j)
		return rows, env, err
	}
	tmpl := diffJoin(t, kind, lt, rt, nk, residual, env.ctx)
	tmpl.Left = &rowsOp{ts: lt}
	tmpl.Right = &rowsOp{ts: rt, rows: right, batch: batch}
	tmpl.Types()
	sb := &sharedBuild{right: tmpl.Right}
	half := len(left) / 2
	shares := [][][]types.Datum{left[:half], left[half:]}
	outs := make([][][]types.Datum, len(shares))
	errs := make([]error, len(shares))
	clones := make([]*HashJoinOp, len(shares))
	var wg sync.WaitGroup
	for w, share := range shares {
		clones[w] = &HashJoinOp{
			Left: &rowsOp{ts: lt, rows: share, batch: batch}, Kind: kind,
			LeftKeys: tmpl.LeftKeys, RightKeys: tmpl.RightKeys, Residual: tmpl.Residual,
			Ctx: env.ctx, Shared: sb,
			outTypes: tmpl.outTypes, leftW: tmpl.leftW, rightW: tmpl.rightW, rtTypes: tmpl.rtTypes,
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			outs[w], errs[w] = drainOpen(clones[w])
		}(w)
	}
	wg.Wait()
	// Like the exchange, close the clones only once every one finished:
	// the first Close removes the shared build's spill files.
	for _, c := range clones {
		c.Close()
	}
	var rows [][]types.Datum
	for w := range shares {
		if errs[w] != nil {
			return nil, env, errs[w]
		}
		rows = append(rows, outs[w]...)
	}
	return rows, env, nil
}

// drainOpen opens op and reads it to the end without closing it.
func drainOpen(op Operator) ([][]types.Datum, error) {
	if err := op.Open(); err != nil {
		return nil, err
	}
	var out [][]types.Datum
	for {
		b, err := op.Next()
		if err != nil || b == nil {
			return out, err
		}
		for i := 0; i < b.N; i++ {
			out = append(out, b.Row(i))
		}
	}
}

// TestHashJoinDifferential compares HashJoinOp with the nested-loop oracle
// for every join kind, with and without a residual, over NULL, duplicate,
// cross-kind and NaN keys and nested-loop joins; in memory and Grace-
// spilled, at DOP 1 and 2, with and without a shared build. In memory at
// DOP 1 the output must match the oracle row for row, in order; elsewhere
// (parallel builds append in arrival order, Grace emits partition by
// partition) as a multiset.
func TestHashJoinDifferential(t *testing.T) {
	for ci, c := range joinDiffCases {
		rng := rand.New(rand.NewSource(int64(41 + ci)))
		lt, left := joinDiffRows(rng, c.lk, c.probe, 0, c.nan)
		rt, right := joinDiffRows(rng, c.rk, c.build, c.hot, c.nan)
		if c.hot > 0 {
			// Three probe rows carry the hot key.
			for i := 0; i < 3; i++ {
				left[i*97][0] = hotDatum(c.lk[0])
			}
		}
		nk := len(c.lk)
		for _, kind := range joinDiffKinds {
			for _, residual := range []bool{false, true} {
				build := right
				if kind == plan.Single {
					build = uniqueKeys(right, nk)
				}
				want, werr := oracleJoin(kind, lt, rt, left, build, nk, residual)
				for _, cfg := range joinDiffConfigs {
					if cfg.shared && (nk == 0 || kind == plan.Right || kind == plan.Full) {
						continue // the planner shares keyed, non-right-outer builds only
					}
					name := fmt.Sprintf("%s/kind=%d/residual=%v/%s", c.name, kind, residual, cfg.name)
					batch := 1 + rng.Intn(100)
					got, env, err := runDiffJoin(t, kind, lt, rt, left, build, nk, residual, cfg, batch)
					if werr != nil {
						if err == nil || !strings.Contains(err.Error(), "more than one row") {
							t.Fatalf("%s: want the single-join cardinality error, got %v", name, err)
						}
						continue
					}
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					g, w := renderRows(got), renderRows(want)
					if !(cfg.dop == 1 && cfg.budget == 0 && !cfg.shared) {
						sort.Strings(g)
						sort.Strings(w)
					}
					if len(g) != len(w) {
						t.Fatalf("%s: %d rows, oracle %d", name, len(g), len(w))
					}
					for i := range g {
						if g[i] != w[i] {
							t.Fatalf("%s: row %d is %s, oracle %s", name, i, g[i], w[i])
						}
					}
					if cfg.budget > 0 && nk > 0 && env.ctx.Mem.SpilledBytes() == 0 {
						t.Errorf("%s: budget %d B did not Grace-spill", name, cfg.budget)
					}
					if leaks := env.leakedFiles(t); len(leaks) != 0 {
						t.Fatalf("%s: leaked spill files: %v", name, leaks)
					}
				}
			}
		}
	}
}

// uniqueKeys keeps the first build row of every key (and every row with a
// NULL key), so a single join over it has at most one match per probe row
// without the residual. Rows with fresh keys no probe row has pad it back
// to a size the Grace budget spills.
func uniqueKeys(rows [][]types.Datum, nk int) [][]types.Datum {
	if nk == 0 {
		return rows[:1]
	}
	var out [][]types.Datum
	for i := 0; i < 150; i++ {
		pad := append([]types.Datum{}, rows[0]...)
		for k := 0; k < nk; k++ {
			pad[k] = wholeDatum(types.T{Kind: rows[0][k].K}, int64(200+i))
		}
		out = append(out, pad)
	}
	for _, r := range rows {
		dup := false
		for _, o := range out {
			same := true
			for k := 0; k < nk; k++ {
				if r[k].Null || o[k].Null || r[k].Compare(o[k]) != 0 {
					same = false
					break
				}
			}
			if same {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, r)
		}
	}
	return out
}

// TestHashJoinSingleSecondMatchErrors pins the scalar-subquery guarantee: a
// probe row meeting a second build match fails the query.
func TestHashJoinSingleSecondMatchErrors(t *testing.T) {
	ts := []types.T{types.TInt, types.TInt, types.TInt}
	left := [][]types.Datum{{types.NewInt(1), types.NewInt(0), types.NewInt(0)}}
	right := [][]types.Datum{
		{types.NewInt(1), types.NewInt(5), types.NewInt(0)},
		{types.NewInt(2), types.NewInt(5), types.NewInt(1)},
		{types.NewInt(1), types.NewInt(5), types.NewInt(2)},
	}
	for _, cfg := range []joinDiffConfig{{name: "mem", dop: 1}, {name: "grace", dop: 1, budget: 1}} {
		_, _, err := runDiffJoin(t, plan.Single, ts, ts, left, right, 1, false, cfg, 1)
		if err == nil || !strings.Contains(err.Error(), "more than one row") {
			t.Errorf("%s: single join with two matches: got err %v", cfg.name, err)
		}
	}
}

// TestUpdateFilterValuesBound pins the semijoin reducer's value list: it
// stops growing at one past the limit, and finishFilter drops it exactly
// when more values than the limit were added.
func TestUpdateFilterValuesBound(t *testing.T) {
	for _, c := range []struct {
		add, during int
		kept        bool
	}{
		{add: maxFilterValues, during: maxFilterValues, kept: true},
		{add: maxFilterValues + 1, during: maxFilterValues + 1, kept: false},
		{add: 3 * maxFilterValues, during: maxFilterValues + 1, kept: false},
	} {
		f := &RuntimeFilter{}
		for i := 0; i < c.add; i++ {
			updateFilter(f, types.NewBigint(int64(i)))
		}
		if len(f.Values) != c.during {
			t.Errorf("add %d: %d values held before finish, want %d", c.add, len(f.Values), c.during)
		}
		finishFilter(f)
		if (f.Values != nil) != c.kept {
			t.Errorf("add %d: values kept = %v, want %v", c.add, f.Values != nil, c.kept)
		}
		if c.kept && len(f.Values) != c.add {
			t.Errorf("add %d: %d values kept", c.add, len(f.Values))
		}
		if f.Min.I != 0 || f.Max.I != int64(c.add-1) {
			t.Errorf("add %d: min/max %v/%v", c.add, f.Min, f.Max)
		}
	}
}
