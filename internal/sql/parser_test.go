package sql

import (
	"strings"
	"testing"

	"repro/internal/types"
)

func mustParse(t *testing.T, src string) Statement {
	t.Helper()
	st, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return st
}

func mustSelect(t *testing.T, src string) *SelectStmt {
	t.Helper()
	st := mustParse(t, src)
	sel, ok := st.(*SelectStmt)
	if !ok {
		t.Fatalf("expected SelectStmt, got %T", st)
	}
	return sel
}

func TestLexerBasics(t *testing.T) {
	toks, err := Lex("SELECT a, 'it''s' FROM t -- comment\nWHERE x >= 1.5")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokKind
	var texts []string
	for _, tk := range toks {
		kinds = append(kinds, tk.Kind)
		texts = append(texts, tk.Text)
	}
	want := []string{"SELECT", "a", ",", "it's", "FROM", "t", "WHERE", "x", ">=", "1.5", ""}
	for i, w := range want {
		if texts[i] != w {
			t.Errorf("token %d = %q, want %q", i, texts[i], w)
		}
	}
	if kinds[3] != TokString {
		t.Error("string literal kind wrong")
	}
	if _, err := Lex("'unterminated"); err == nil {
		t.Error("unterminated string should fail")
	}
	if _, err := Lex("a $ b"); err == nil {
		t.Error("illegal char should fail")
	}
}

func TestSimpleSelect(t *testing.T) {
	sel := mustSelect(t, "SELECT a, b AS total FROM t WHERE a > 1 ORDER BY total DESC LIMIT 10")
	core := sel.Body.(*SelectCore)
	if len(core.Items) != 2 || core.Items[1].Alias != "total" {
		t.Errorf("items: %+v", core.Items)
	}
	tn := core.From.(*TableName)
	if tn.Name != "t" {
		t.Errorf("from: %+v", tn)
	}
	if sel.Limit != 10 || len(sel.OrderBy) != 1 || !sel.OrderBy[0].Desc {
		t.Errorf("order/limit: %+v %d", sel.OrderBy, sel.Limit)
	}
	be := core.Where.(*BinExpr)
	if be.Op != ">" {
		t.Errorf("where: %+v", be)
	}
}

func TestLimitOffsetParsing(t *testing.T) {
	sel := mustSelect(t, "SELECT a FROM t ORDER BY a LIMIT 10 OFFSET 25")
	if sel.Limit != 10 || sel.Offset != 25 {
		t.Errorf("limit/offset: %d/%d", sel.Limit, sel.Offset)
	}
	sel = mustSelect(t, "SELECT a FROM t LIMIT 5")
	if sel.Limit != 5 || sel.Offset != 0 {
		t.Errorf("limit without offset: %d/%d", sel.Limit, sel.Offset)
	}
	if _, err := Parse("SELECT a FROM t LIMIT 5 OFFSET x"); err == nil {
		t.Error("non-numeric OFFSET must fail")
	}
	if _, err := Parse("SELECT a FROM t OFFSET 5"); err == nil {
		t.Error("OFFSET without LIMIT must fail")
	}
}

func TestJoinParsing(t *testing.T) {
	sel := mustSelect(t, `SELECT * FROM store_sales ss
		JOIN item ON ss.item_sk = item.i_item_sk
		LEFT OUTER JOIN store_returns sr ON ss.ticket = sr.ticket
		WHERE item.category = 'Sports'`)
	core := sel.Body.(*SelectCore)
	j := core.From.(*Join)
	if j.Kind != JoinLeft {
		t.Errorf("outer join kind = %v", j.Kind)
	}
	inner := j.Left.(*Join)
	if inner.Kind != JoinInner {
		t.Errorf("inner join kind = %v", inner.Kind)
	}
	ss := inner.Left.(*TableName)
	if ss.Name != "store_sales" || ss.Alias != "ss" {
		t.Errorf("aliased table: %+v", ss)
	}
}

func TestCommaJoinAndSemi(t *testing.T) {
	sel := mustSelect(t, "SELECT 1 FROM a, b WHERE a.x = b.y")
	j := sel.Body.(*SelectCore).From.(*Join)
	if j.Kind != JoinCross {
		t.Errorf("comma join should be cross, got %v", j.Kind)
	}
	sel = mustSelect(t, "SELECT 1 FROM a LEFT SEMI JOIN b ON a.x = b.y")
	j = sel.Body.(*SelectCore).From.(*Join)
	if j.Kind != JoinSemi {
		t.Errorf("semi join kind = %v", j.Kind)
	}
}

func TestSetOperations(t *testing.T) {
	sel := mustSelect(t, "SELECT a FROM t UNION ALL SELECT a FROM u INTERSECT SELECT a FROM v")
	// INTERSECT binds tighter: union(t, intersect(u,v)).
	op := sel.Body.(*SetOp)
	if op.Kind != SetUnion || !op.All {
		t.Fatalf("top op: %+v", op)
	}
	right := op.Right.(*SetOp)
	if right.Kind != SetIntersect || right.All {
		t.Errorf("right op: %+v", right)
	}
	sel = mustSelect(t, "SELECT a FROM t EXCEPT SELECT a FROM u")
	if sel.Body.(*SetOp).Kind != SetExcept {
		t.Error("except kind")
	}
}

func TestSubqueries(t *testing.T) {
	sel := mustSelect(t, `SELECT c FROM t WHERE
		x IN (SELECT y FROM u WHERE u.k = t.k) AND
		EXISTS (SELECT 1 FROM v) AND
		amount > (SELECT avg(amount) FROM t)`)
	where := sel.Body.(*SelectCore).Where.(*BinExpr)
	// ((IN AND EXISTS) AND scalar-compare)
	if where.Op != "AND" {
		t.Fatalf("where: %+v", where)
	}
	inner := where.L.(*BinExpr)
	if _, ok := inner.L.(*InExpr); !ok {
		t.Errorf("IN subquery: %T", inner.L)
	}
	if _, ok := inner.R.(*ExistsExpr); !ok {
		t.Errorf("EXISTS: %T", inner.R)
	}
	cmp := where.R.(*BinExpr)
	if _, ok := cmp.R.(*SubqueryExpr); !ok {
		t.Errorf("scalar subquery: %T", cmp.R)
	}
}

func TestDerivedTableAndCTE(t *testing.T) {
	sel := mustSelect(t, `WITH x AS (SELECT a FROM t), y AS (SELECT a FROM u)
		SELECT * FROM (SELECT a FROM x) sub JOIN y ON sub.a = y.a`)
	if len(sel.With) != 2 || sel.With[0].Name != "x" {
		t.Fatalf("ctes: %+v", sel.With)
	}
	j := sel.Body.(*SelectCore).From.(*Join)
	sq := j.Left.(*SubqueryRef)
	if sq.Alias != "sub" {
		t.Errorf("derived table alias: %q", sq.Alias)
	}
}

func TestGroupingSetsRollupCube(t *testing.T) {
	sel := mustSelect(t, "SELECT a, b, sum(c) FROM t GROUP BY GROUPING SETS ((a,b),(a),())")
	core := sel.Body.(*SelectCore)
	if len(core.GroupingSets) != 3 || len(core.GroupingSets[2]) != 0 {
		t.Errorf("grouping sets: %v", core.GroupingSets)
	}
	sel = mustSelect(t, "SELECT a, b, sum(c) FROM t GROUP BY ROLLUP(a, b)")
	core = sel.Body.(*SelectCore)
	if len(core.GroupingSets) != 3 {
		t.Errorf("rollup sets: %d", len(core.GroupingSets))
	}
	sel = mustSelect(t, "SELECT a, b, sum(c) FROM t GROUP BY CUBE(a, b)")
	core = sel.Body.(*SelectCore)
	if len(core.GroupingSets) != 4 {
		t.Errorf("cube sets: %d", len(core.GroupingSets))
	}
}

func TestWindowFunctions(t *testing.T) {
	sel := mustSelect(t, `SELECT rank() OVER (PARTITION BY d ORDER BY s DESC),
		sum(x) OVER (PARTITION BY d ORDER BY s ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
		FROM t`)
	core := sel.Body.(*SelectCore)
	c0 := core.Items[0].Expr.(*Call)
	if c0.Over == nil || len(c0.Over.PartitionBy) != 1 || !c0.Over.OrderBy[0].Desc {
		t.Errorf("window spec: %+v", c0.Over)
	}
	c1 := core.Items[1].Expr.(*Call)
	if c1.Over == nil {
		t.Error("frame clause broke the window spec")
	}
}

func TestExpressions(t *testing.T) {
	sel := mustSelect(t, `SELECT
		CASE WHEN a > 1 THEN 'hi' ELSE 'lo' END,
		CAST(a AS decimal(7,2)),
		EXTRACT(year FROM d),
		a BETWEEN 1 AND 10,
		s LIKE '%x%',
		b IS NOT NULL,
		d + INTERVAL 3 DAYS,
		-5,
		1.25,
		x NOT IN (1, 2, 3)
		FROM t`)
	items := sel.Body.(*SelectCore).Items
	if _, ok := items[0].Expr.(*CaseExpr); !ok {
		t.Errorf("case: %T", items[0].Expr)
	}
	cast := items[1].Expr.(*CastExpr)
	if cast.Type.String() != "DECIMAL(7,2)" {
		t.Errorf("cast type: %s", cast.Type)
	}
	if ex := items[2].Expr.(*ExtractExpr); ex.Field != "year" {
		t.Errorf("extract: %+v", ex)
	}
	if _, ok := items[3].Expr.(*BetweenExpr); !ok {
		t.Errorf("between: %T", items[3].Expr)
	}
	if _, ok := items[4].Expr.(*LikeExpr); !ok {
		t.Errorf("like: %T", items[4].Expr)
	}
	if n := items[5].Expr.(*IsNullExpr); !n.Not {
		t.Errorf("is not null: %+v", n)
	}
	add := items[6].Expr.(*BinExpr)
	if _, ok := add.R.(*IntervalExpr); !ok {
		t.Errorf("interval: %T", add.R)
	}
	if lit := items[7].Expr.(*Lit); lit.Val.I != -5 {
		t.Errorf("neg literal: %v", lit.Val)
	}
	if lit := items[8].Expr.(*Lit); lit.Val.K != types.Decimal || lit.Val.String() != "1.25" {
		t.Errorf("decimal literal: %v", lit.Val)
	}
	if in := items[9].Expr.(*InExpr); !in.Not || len(in.List) != 3 {
		t.Errorf("not in: %+v", in)
	}
}

func TestInsertForms(t *testing.T) {
	st := mustParse(t, "INSERT INTO t VALUES (1, 'a'), (2, 'b')").(*InsertStmt)
	if len(st.Values) != 2 || st.Overwrite {
		t.Errorf("values insert: %+v", st)
	}
	st = mustParse(t, "INSERT OVERWRITE TABLE t PARTITION (ds='2018-01-01') SELECT a FROM u").(*InsertStmt)
	if !st.Overwrite || st.Partition["ds"] == nil || st.Select == nil {
		t.Errorf("overwrite insert: %+v", st)
	}
	st = mustParse(t, "INSERT INTO t (a, b) SELECT x, y FROM u").(*InsertStmt)
	if len(st.Columns) != 2 {
		t.Errorf("column list: %+v", st.Columns)
	}
}

func TestMultiInsert(t *testing.T) {
	st := mustParse(t, `FROM staging s
		INSERT INTO t1 SELECT s.a WHERE s.a > 0
		INSERT INTO t2 SELECT s.b`).(*MultiInsertStmt)
	if len(st.Inserts) != 2 {
		t.Fatalf("inserts: %d", len(st.Inserts))
	}
	if st.Inserts[0].Select.Body.(*SelectCore).Where == nil {
		t.Error("per-insert WHERE lost")
	}
}

func TestUpdateDeleteMerge(t *testing.T) {
	up := mustParse(t, "UPDATE t SET a = a + 1, b = 'x' WHERE k = 5").(*UpdateStmt)
	if len(up.Set) != 2 || up.Where == nil {
		t.Errorf("update: %+v", up)
	}
	del := mustParse(t, "DELETE FROM t WHERE k = 5").(*DeleteStmt)
	if del.Where == nil {
		t.Errorf("delete: %+v", del)
	}
	mg := mustParse(t, `MERGE INTO target t USING source s ON t.k = s.k
		WHEN MATCHED AND s.op = 'del' THEN DELETE
		WHEN MATCHED THEN UPDATE SET v = s.v
		WHEN NOT MATCHED THEN INSERT VALUES (s.k, s.v)`).(*MergeStmt)
	if len(mg.When) != 3 {
		t.Fatalf("merge whens: %d", len(mg.When))
	}
	if !mg.When[0].Delete || mg.When[0].And == nil {
		t.Errorf("when matched delete: %+v", mg.When[0])
	}
	if len(mg.When[1].Set) != 1 {
		t.Errorf("when matched update: %+v", mg.When[1])
	}
	if len(mg.When[2].Values) != 2 {
		t.Errorf("when not matched: %+v", mg.When[2])
	}
}

func TestCreateTablePaperExample(t *testing.T) {
	st := mustParse(t, `CREATE TABLE store_sales (
		sold_date_sk INT, item_sk INT, customer_sk INT, store_sk INT,
		quantity INT, list_price DECIMAL(7,2), sales_price DECIMAL(7,2)
	) PARTITIONED BY (sold_date_sk2 INT)`).(*CreateTableStmt)
	if len(st.Cols) != 7 || len(st.PartKeys) != 1 {
		t.Errorf("cols=%d parts=%d", len(st.Cols), len(st.PartKeys))
	}
	if st.Cols[5].Type.String() != "DECIMAL(7,2)" {
		t.Errorf("decimal col: %s", st.Cols[5].Type)
	}
}

func TestCreateTableConstraintsAndProps(t *testing.T) {
	st := mustParse(t, `CREATE EXTERNAL TABLE IF NOT EXISTS db.t (
		id BIGINT NOT NULL,
		name STRING,
		PRIMARY KEY (id) DISABLE NOVALIDATE RELY,
		FOREIGN KEY (name) REFERENCES dim(name_key),
		UNIQUE (name)
	) STORED BY 'org.apache.hadoop.hive.druid.DruidStorageHandler'
	TBLPROPERTIES ('druid.datasource' = 'my_source')`).(*CreateTableStmt)
	if !st.External || !st.IfNotExists || st.Table.DB != "db" {
		t.Errorf("flags: %+v", st)
	}
	if len(st.PrimaryKey) != 1 || len(st.ForeignKeys) != 1 || len(st.UniqueKeys) != 1 {
		t.Errorf("constraints: %+v", st)
	}
	if !st.Cols[0].NotNull {
		t.Error("NOT NULL lost")
	}
	if st.StoredBy != "org.apache.hadoop.hive.druid.DruidStorageHandler" {
		t.Errorf("stored by: %q", st.StoredBy)
	}
	if st.TblProps["druid.datasource"] != "my_source" {
		t.Errorf("props: %v", st.TblProps)
	}
}

func TestCreateMaterializedView(t *testing.T) {
	st := mustParse(t, `CREATE MATERIALIZED VIEW mat_view AS
		SELECT d_year, SUM(ss_sales_price) AS sum_sales
		FROM store_sales, date_dim
		WHERE ss_sold_date_sk = d_date_sk AND d_year > 2017
		GROUP BY d_year`).(*CreateMaterializedViewStmt)
	if st.Name.Name != "mat_view" || st.Query == nil {
		t.Errorf("mv: %+v", st)
	}
	if !strings.Contains(st.QueryText, "SUM(ss_sales_price)") {
		t.Errorf("query text: %q", st.QueryText)
	}
	rb := mustParse(t, "ALTER MATERIALIZED VIEW mat_view REBUILD").(*AlterMVRebuildStmt)
	if rb.Name.Name != "mat_view" {
		t.Errorf("rebuild: %+v", rb)
	}
}

func TestResourcePlanDDLPaperExample(t *testing.T) {
	stmts, err := ParseScript(`
		CREATE RESOURCE PLAN daytime;
		CREATE POOL daytime.bi WITH alloc_fraction=0.8, query_parallelism=5;
		CREATE POOL daytime.etl WITH alloc_fraction=0.2, query_parallelism=20;
		CREATE RULE downgrade IN daytime WHEN total_runtime > 3000 THEN MOVE etl;
		ADD RULE downgrade TO bi;
		CREATE APPLICATION MAPPING visualization_app IN daytime TO bi;
		ALTER PLAN daytime SET DEFAULT POOL = etl;
		ALTER RESOURCE PLAN daytime ENABLE ACTIVATE;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 8 {
		t.Fatalf("parsed %d statements", len(stmts))
	}
	pool := stmts[1].(*CreatePoolStmt)
	if pool.Plan != "daytime" || pool.Pool != "bi" || pool.AllocFraction != 0.8 || pool.QueryParallelism != 5 {
		t.Errorf("pool: %+v", pool)
	}
	rule := stmts[3].(*CreateRuleStmt)
	if rule.Metric != "total_runtime" || rule.Threshold != 3000 || rule.MovePool != "etl" {
		t.Errorf("rule: %+v", rule)
	}
	add := stmts[4].(*AddRuleStmt)
	if add.Rule != "downgrade" || add.Pool != "bi" {
		t.Errorf("add rule: %+v", add)
	}
	mp := stmts[5].(*CreateMappingStmt)
	if mp.Kind != "application" || mp.Name != "visualization_app" || mp.Pool != "bi" {
		t.Errorf("mapping: %+v", mp)
	}
	ap := stmts[6].(*AlterPlanStmt)
	if ap.DefaultPool != "etl" {
		t.Errorf("default pool: %+v", ap)
	}
	act := stmts[7].(*AlterPlanStmt)
	if !act.EnableActivate {
		t.Errorf("activate: %+v", act)
	}
}

func TestMiscStatements(t *testing.T) {
	if st := mustParse(t, "EXPLAIN SELECT 1").(*ExplainStmt); st.Inner == nil {
		t.Error("explain inner nil")
	}
	set := mustParse(t, "SET hive.llap.enabled = true").(*SetStmt)
	if set.Key != "hive.llap.enabled" || set.Value != "TRUE" {
		t.Errorf("set: %+v", set)
	}
	an := mustParse(t, "ANALYZE TABLE t COMPUTE STATISTICS").(*AnalyzeStmt)
	if an.Table.Name != "t" {
		t.Errorf("analyze: %+v", an)
	}
	drop := mustParse(t, "DROP TABLE IF EXISTS db.t").(*DropStmt)
	if !drop.IfExists || drop.Name.DB != "db" {
		t.Errorf("drop: %+v", drop)
	}
	dp := mustParse(t, "ALTER TABLE t DROP PARTITION (ds = '2018-01-01')").(*AlterTableDropPartitionStmt)
	if dp.Spec["ds"] == nil {
		t.Errorf("drop partition: %+v", dp)
	}
	use := mustParse(t, "USE tpcds").(*UseStmt)
	if use.DB != "tpcds" {
		t.Errorf("use: %+v", use)
	}
	show := mustParse(t, "SHOW TABLES").(*ShowStmt)
	if show.What != "tables" {
		t.Errorf("show: %+v", show)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"SELECT",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"FROB x",
		"INSERT INTO",
		"MERGE INTO t USING s ON 1=1",
		"SELECT a FROM t GROUP BY GROUPING SETS (a)",
		"CREATE POOL p WITH alloc_fraction='x'",
		"SELECT a b c FROM t",
		"CREATE TABLE A(A A0(",
		"SELECT CAST(1 AS decimal(7,2",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestFormatExprRoundsTrip(t *testing.T) {
	sel := mustSelect(t, "SELECT CASE WHEN a > 1 THEN b ELSE c END FROM t WHERE x IN (1,2) AND y IS NULL")
	core := sel.Body.(*SelectCore)
	got := FormatExpr(core.Where)
	if !strings.Contains(got, "IN (1, 2)") || !strings.Contains(got, "IS NULL") {
		t.Errorf("format: %s", got)
	}
	reparsed, err := Parse("SELECT 1 FROM t WHERE " + got)
	if err != nil {
		t.Fatalf("formatted expr does not reparse: %v\n%s", err, got)
	}
	if FormatExpr(reparsed.(*SelectStmt).Body.(*SelectCore).Where) != got {
		t.Error("format not a fixpoint")
	}
}
