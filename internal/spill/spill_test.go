package spill

import (
	"testing"

	"repro/internal/dfs"
	"repro/internal/types"
)

func TestWriterReaderBlocks(t *testing.T) {
	fs := dfs.New()
	w := NewWriter(fs, "/scratch/run_0")
	var want [][]types.Datum
	for b := 0; b < 5; b++ {
		var block [][]types.Datum
		for i := 0; i < 100; i++ {
			row := []types.Datum{
				types.NewBigint(int64(b*100 + i)),
				types.NewString("v"),
				types.NewDouble(float64(i) / 3),
			}
			block = append(block, row)
			want = append(want, row)
		}
		w.Append(block)
	}
	if w.Rows() != 500 {
		t.Fatalf("writer rows = %d", w.Rows())
	}
	n, err := w.Close()
	if err != nil || n <= 0 {
		t.Fatalf("close: n=%d err=%v", n, err)
	}
	r, err := OpenReader(fs, "/scratch/run_0")
	if err != nil {
		t.Fatal(err)
	}
	var got [][]types.Datum
	blocks := 0
	for {
		rows, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if rows == nil {
			break
		}
		blocks++
		got = append(got, rows...)
	}
	if blocks != 5 {
		t.Fatalf("blocks = %d, want 5 (streamed one Append per block)", blocks)
	}
	if len(got) != len(want) {
		t.Fatalf("rows = %d, want %d", len(got), len(want))
	}
	for i := range want {
		for c := range want[i] {
			if want[i][c].Compare(got[i][c]) != 0 {
				t.Fatalf("row %d col %d: %v vs %v", i, c, want[i][c], got[i][c])
			}
		}
	}
}

func TestEmptyWriterWritesNothing(t *testing.T) {
	fs := dfs.New()
	w := NewWriter(fs, "/scratch/run_empty")
	if n, err := w.Close(); err != nil || n != 0 {
		t.Fatalf("empty close: n=%d err=%v", n, err)
	}
	if fs.Exists("/scratch/run_empty") {
		t.Fatal("empty run should not create a file")
	}
}

// TestAppendFuncMatchesAppend checks that a block filled row by row through
// a reused buffer frames the same bytes as the block appended whole.
func TestAppendFuncMatchesAppend(t *testing.T) {
	fs := dfs.New()
	rows := [][]types.Datum{
		{types.NewBigint(-3), types.NewString("a"), types.NullOf(types.Float64), types.NewDecimal(125, 2)},
		{types.NullOf(types.Int64), types.NewString(""), types.NewDouble(2.5), types.NewDecimal(-7, 2)},
	}
	whole, byRow := NewWriter(fs, "/a"), NewWriter(fs, "/b")
	for i := 0; i < 3; i++ {
		whole.Append(rows)
		byRow.AppendFunc(len(rows), len(rows[0]), func(i int, row []types.Datum) { copy(row, rows[i]) })
	}
	if string(whole.buf) != string(byRow.buf) || whole.Rows() != byRow.Rows() {
		t.Fatalf("AppendFunc framed %d bytes / %d rows, Append %d bytes / %d rows",
			len(byRow.buf), byRow.Rows(), len(whole.buf), whole.Rows())
	}
}
