package exec

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/plan"
	"repro/internal/types"
	"repro/internal/vector"
)

// batchesOp replays prebuilt batches, so a benchmark measures the operator
// above it and not the staging of its input.
type batchesOp struct {
	ts      []types.T
	batches []*vector.Batch
	pos     int
}

func (o *batchesOp) Types() []types.T { return o.ts }
func (o *batchesOp) Open() error      { o.pos = 0; return nil }
func (o *batchesOp) Close() error     { return nil }
func (o *batchesOp) Next() (*vector.Batch, error) {
	if o.pos >= len(o.batches) {
		return nil, nil
	}
	o.pos++
	return o.batches[o.pos-1], nil
}

// joinBenchTypes is each side's row: a BIGINT key, an INT payload the
// residual compares, and a STRING payload.
var joinBenchTypes = []types.T{types.TBigint, types.TInt, types.TString}

// joinBenchInput builds n rows whose key is key(i), as full batches.
func joinBenchInput(n int, key func(i int) int64) *batchesOp {
	op := &batchesOp{ts: joinBenchTypes}
	for start := 0; start < n; start += vector.BatchSize {
		m := min(vector.BatchSize, n-start)
		b := vector.NewBatch(joinBenchTypes, m)
		for i := 0; i < m; i++ {
			r := start + i
			b.Cols[0].I64[i] = key(r)
			b.Cols[1].I64[i] = int64(r % 10)
			b.Cols[2].Str[i] = fmt.Sprintf("row-%d", r)
		}
		b.N = m
		op.batches = append(op.batches, b)
	}
	return op
}

// joinBenchShape is one build/probe pairing: the build holds buildRows
// rows keyed buildKey(i); probeRows probe rows keyed probeKey(i).
type joinBenchShape struct {
	name                 string
	buildRows, probeRows int
	buildKey, probeKey   func(i int) int64
	residual             bool
}

var joinBenchShapes = []joinBenchShape{
	// 1:1 — every probe row meets exactly one build row.
	{name: "1to1", buildRows: 1 << 16, probeRows: 1 << 16,
		buildKey: func(i int) int64 { return int64(i) }, probeKey: func(i int) int64 { return int64(i) }},
	// 1:N — each probe key meets 8 build rows.
	{name: "fanout8", buildRows: 1 << 16, probeRows: 1 << 13,
		buildKey: func(i int) int64 { return int64(i / 8) }, probeKey: func(i int) int64 { return int64(i) }},
	// Selective — one probe row in 20 finds its key.
	{name: "selective", buildRows: 1 << 16, probeRows: 1 << 16,
		buildKey: func(i int) int64 { return int64(i) * 20 }, probeKey: func(i int) int64 { return int64(i) }},
	// Residual — 1:8 key matches, the residual keeps about half.
	{name: "residual", buildRows: 1 << 16, probeRows: 1 << 13,
		buildKey: func(i int) int64 { return int64(i / 8) }, probeKey: func(i int) int64 { return int64(i) }, residual: true},
}

func joinBenchOp(b *testing.B, s joinBenchShape) *HashJoinOp {
	b.Helper()
	ts := joinBenchTypes
	lk, err := Compile(&plan.ColRef{Idx: 0, T: ts[0]}, ts)
	if err != nil {
		b.Fatal(err)
	}
	j := &HashJoinOp{
		Kind:      plan.Inner,
		Left:      joinBenchInput(s.probeRows, s.probeKey),
		Right:     joinBenchInput(s.buildRows, s.buildKey),
		LeftKeys:  []*CompiledExpr{lk},
		RightKeys: []*CompiledExpr{lk},
	}
	if s.residual {
		combined := append(append([]types.T{}, ts...), ts...)
		e, err := Compile(&plan.Func{Op: "<", T: types.TBool, Args: []plan.Rex{
			&plan.ColRef{Idx: len(ts) + 1, T: types.TInt},
			&plan.ColRef{Idx: 1, T: types.TInt},
		}}, combined)
		if err != nil {
			b.Fatal(err)
		}
		j.Residual = e
	}
	return j
}

// BenchmarkHashJoinBuild measures draining the build input into the
// columnar partition and indexing it.
func BenchmarkHashJoinBuild(b *testing.B) {
	for _, s := range joinBenchShapes {
		b.Run(s.name, func(b *testing.B) {
			j := joinBenchOp(b, s)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := j.Open(); err != nil {
					b.Fatal(err)
				}
				if err := j.build(); err != nil {
					b.Fatal(err)
				}
				j.Close()
			}
			b.ReportMetric(float64(s.buildRows), "rows/op")
		})
	}
}

// BenchmarkHashJoinProbe measures the probe alone against a build made once
// and shared, reporting allocations per output batch: the probe's own
// scratch is reused, so the count per batch stays flat however many rows
// the batch holds.
func BenchmarkHashJoinProbe(b *testing.B) {
	for _, s := range joinBenchShapes {
		b.Run(s.name, func(b *testing.B) {
			tmpl := joinBenchOp(b, s)
			tmpl.Types()
			sb := &sharedBuild{right: tmpl.Right}
			probe := func() (rows, batches int) {
				j := &HashJoinOp{
					Left: tmpl.Left, Kind: tmpl.Kind, LeftKeys: tmpl.LeftKeys, RightKeys: tmpl.RightKeys,
					Residual: tmpl.Residual, Shared: sb,
					outTypes: tmpl.outTypes, leftW: tmpl.leftW, rightW: tmpl.rightW, rtTypes: tmpl.rtTypes,
				}
				if err := j.Open(); err != nil {
					b.Fatal(err)
				}
				defer j.Close()
				for {
					out, err := j.Next()
					if err != nil {
						b.Fatal(err)
					}
					if out == nil {
						return rows, batches
					}
					rows += out.N
					batches++
				}
			}
			probe() // builds the shared table
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			var rows, batches int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, n := probe()
				rows += r
				batches += n
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(rows)/float64(b.N), "rows/op")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(batches), "allocs/batch")
		})
	}
}
