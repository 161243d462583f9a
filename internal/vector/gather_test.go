package vector

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/types"
)

// keyTypes are the key column types the join compares across.
var keyTypes = []types.T{types.TBool, types.TInt, types.TBigint, types.TDouble, types.TDecimal(9, 2), types.TDecimal(9, 1), types.TString, types.TDate}

// randomVector fills n rows of type t from a small domain with NULLs, so
// equal values recur within and across kinds (and doubles include NaN).
func randomVector(rng *rand.Rand, t types.T, n int) *Vector {
	v := New(t, n)
	for i := 0; i < n; i++ {
		k := int64(rng.Intn(6))
		switch {
		case rng.Intn(8) == 0:
			v.SetNull(i)
		case t.Kind == types.Float64 && rng.Intn(10) == 0:
			v.Set(i, types.NewDouble(math.NaN()))
		case t.Kind == types.Float64:
			v.Set(i, types.NewDouble(float64(k)/2))
		case t.Kind == types.Decimal:
			v.Set(i, types.NewDecimal(k*50, 2))
		case t.Kind == types.String:
			v.Set(i, types.NewString(string(rune('a'+k))))
		case t.Kind == types.Boolean:
			v.Set(i, types.NewBool(k%2 == 0))
		default:
			v.Set(i, types.Datum{K: t.Kind, I: k})
		}
	}
	return v
}

// TestKeyEqualFuncMatchesCompare checks the join-key equality against its
// definition for every pair of key types: Datum.Compare == 0, with NULL
// equal to nothing.
func TestKeyEqualFuncMatchesCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, at := range keyTypes {
		for _, bt := range keyTypes {
			a, b := randomVector(rng, at, 40), randomVector(rng, bt, 40)
			eq := KeyEqualFunc(a, b)
			for i := 0; i < 40; i++ {
				for j := 0; j < 40; j++ {
					x, y := a.Get(i), b.Get(j)
					want := !x.Null && !y.Null && x.Compare(y) == 0
					if got := eq(i, j); got != want {
						t.Fatalf("%s %v vs %s %v: got %v, want %v", at, x, bt, y, got, want)
					}
				}
			}
		}
	}
}

// TestGatherMatchesSet checks Gather against row-by-row Set(Get): same
// layout or converted, with NULL sources, negative (missing) indexes, and
// a reused destination whose old NULLs must be cleared.
func TestGatherMatchesSet(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pairs := [][2]types.T{
		{types.TBigint, types.TBigint}, {types.TString, types.TString}, {types.TDouble, types.TDouble},
		{types.TDecimal(9, 2), types.TDecimal(9, 2)}, {types.TDecimal(9, 2), types.TDecimal(12, 3)},
		{types.TInt, types.TDouble},
	}
	for _, p := range pairs {
		from := randomVector(rng, p[0], 50)
		dst := New(p[1], 64)
		for round := 0; round < 2; round++ {
			idx := make([]int32, 30)
			for k := range idx {
				idx[k] = int32(rng.Intn(50))
				if round == 0 && rng.Intn(5) == 0 {
					idx[k] = -1
				}
			}
			want := New(p[1], 64)
			for k, s := range idx {
				if s < 0 {
					want.SetNull(4 + k)
				} else {
					want.Set(4+k, from.Get(int(s)))
				}
			}
			dst.Gather(4, from, idx)
			for k := range idx {
				g, w := dst.Get(4+k), want.Get(4+k)
				if g.Null != w.Null || (!g.Null && g.Compare(w) != 0) {
					t.Fatalf("%s<-%s round %d row %d: got %v, want %v", p[1], p[0], round, k, g, w)
				}
			}
		}
	}
}

// TestAppendRowsGrowsAndConverts appends selected rows batch by batch and
// checks values, NULLs and geometric growth.
func TestAppendRowsGrowsAndConverts(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, p := range [][2]types.T{{types.TString, types.TString}, {types.TDecimal(9, 2), types.TDecimal(9, 1)}, {types.TBigint, types.TBigint}} {
		v := New(p[1], 0)
		var want []types.Datum
		reallocs := 0
		for batch := 0; batch < 200; batch++ {
			from := randomVector(rng, p[0], 16)
			sel := []int{1, 3, 4, 9, 15}
			capBefore := v.CapBytes()
			v.AppendRows(from, sel, len(sel))
			if v.CapBytes() != capBefore {
				reallocs++
			}
			for _, r := range sel {
				d := New(p[1], 1)
				d.Set(0, from.Get(r))
				want = append(want, d.Get(0))
			}
		}
		if v.Len() != len(want) || (v.Nulls != nil && len(v.Nulls) != v.Len()) {
			t.Fatalf("%s: len %d, nulls %d, want %d", p[1], v.Len(), len(v.Nulls), len(want))
		}
		for i, w := range want {
			if g := v.Get(i); g.Null != w.Null || (!g.Null && g.Compare(w) != 0) {
				t.Fatalf("%s row %d: got %v, want %v", p[1], i, g, w)
			}
		}
		if reallocs > 24 {
			t.Errorf("%s: %d reallocations for 1000 rows appended 5 at a time", p[1], reallocs)
		}
	}
}
