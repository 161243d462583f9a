// Package vector implements the columnar batch representation used by the
// vectorized execution engine and the LLAP I/O elevator (paper §5.1): data is
// processed in fixed-size batches of column vectors, each a typed slice plus
// a null mask, with an optional selection vector identifying the live rows.
package vector

import (
	"math"

	"repro/internal/types"
)

// BatchSize is the default number of rows in a full batch.
const BatchSize = 1024

// Vector is a single column of values. Exactly one of I64, F64, Str is the
// backing store, chosen by the type kind:
//
//	I64: BOOLEAN (0/1), INT, BIGINT, DECIMAL (unscaled), DATE, TIMESTAMP, INTERVAL
//	F64: DOUBLE
//	Str: STRING
//
// Nulls[i] reports whether row i is NULL. A nil Nulls slice means
// "no nulls in this vector", which fast paths exploit.
type Vector struct {
	Type  types.T
	Nulls []bool
	I64   []int64
	F64   []float64
	Str   []string
}

// New returns a vector of the given type with capacity for n rows, length n.
func New(t types.T, n int) *Vector {
	v := &Vector{Type: t}
	switch t.Kind {
	case types.Float64:
		v.F64 = make([]float64, n)
	case types.String:
		v.Str = make([]string, n)
	default:
		v.I64 = make([]int64, n)
	}
	return v
}

// Len returns the number of physical rows in the vector.
func (v *Vector) Len() int {
	switch v.Type.Kind {
	case types.Float64:
		return len(v.F64)
	case types.String:
		return len(v.Str)
	default:
		return len(v.I64)
	}
}

// Resize sets the physical length to n, reallocating if needed.
func (v *Vector) Resize(n int) {
	switch v.Type.Kind {
	case types.Float64:
		if cap(v.F64) >= n {
			v.F64 = v.F64[:n]
		} else {
			nf := make([]float64, n)
			copy(nf, v.F64)
			v.F64 = nf
		}
	case types.String:
		if cap(v.Str) >= n {
			v.Str = v.Str[:n]
		} else {
			ns := make([]string, n)
			copy(ns, v.Str)
			v.Str = ns
		}
	default:
		if cap(v.I64) >= n {
			v.I64 = v.I64[:n]
		} else {
			ni := make([]int64, n)
			copy(ni, v.I64)
			v.I64 = ni
		}
	}
	if v.Nulls != nil {
		if cap(v.Nulls) >= n {
			old := len(v.Nulls)
			v.Nulls = v.Nulls[:n]
			for i := old; i < n; i++ {
				v.Nulls[i] = false
			}
		} else {
			nn := make([]bool, n)
			copy(nn, v.Nulls)
			v.Nulls = nn
		}
	}
}

// IsNull reports whether row i is NULL.
func (v *Vector) IsNull(i int) bool { return v.Nulls != nil && v.Nulls[i] }

// SetNull marks row i as NULL, allocating the null mask on first use.
func (v *Vector) SetNull(i int) {
	if v.Nulls == nil {
		v.Nulls = make([]bool, v.Len())
	}
	v.Nulls[i] = true
}

// EqDatum reports whether row i equals d under key equality — the same
// relation Datum.Compare() == 0 yields — without materializing a Datum.
// The caller must have materialized d from a vector of this column's type
// (aggregation group keys are), so kinds and decimal scales already agree
// and the raw backing values compare directly. Float equality mirrors
// cmpFloat (!(a<b) && !(a>b)), under which NaN equals everything — the
// same treatment the sort and group paths give it.
func (v *Vector) EqDatum(i int, d types.Datum) bool {
	if null := v.IsNull(i); null || d.Null {
		return null == d.Null
	}
	switch v.Type.Kind {
	case types.Float64:
		a, b := v.F64[i], d.F
		return !(a < b) && !(a > b)
	case types.String:
		return v.Str[i] == d.S
	default:
		return v.I64[i] == d.I
	}
}

// Get materializes row i as a Datum. Not for hot loops.
func (v *Vector) Get(i int) types.Datum {
	if v.IsNull(i) {
		return types.NullOf(v.Type.Kind)
	}
	switch v.Type.Kind {
	case types.Float64:
		return types.NewDouble(v.F64[i])
	case types.String:
		return types.NewString(v.Str[i])
	case types.Decimal:
		return types.NewDecimal(v.I64[i], v.Type.Scale)
	default:
		return types.Datum{K: v.Type.Kind, I: v.I64[i]}
	}
}

// Set stores a Datum into row i. The datum must already have the vector's
// type (use types.Cast upstream).
func (v *Vector) Set(i int, d types.Datum) {
	if d.Null {
		v.SetNull(i)
		return
	}
	if v.Nulls != nil {
		v.Nulls[i] = false
	}
	switch v.Type.Kind {
	case types.Float64:
		v.F64[i] = d.Float()
	case types.String:
		v.Str[i] = d.S
	case types.Decimal:
		// Normalize to the vector's scale.
		ds := d.DecimalScale()
		switch {
		case d.K != types.Decimal:
			v.I64[i] = d.I * types.Pow10(v.Type.Scale)
		case ds == v.Type.Scale:
			v.I64[i] = d.I
		case ds < v.Type.Scale:
			v.I64[i] = d.I * types.Pow10(v.Type.Scale-ds)
		default:
			v.I64[i] = d.I / types.Pow10(ds-v.Type.Scale)
		}
	default:
		v.I64[i] = d.I
	}
}

// CopyRow copies row src of from into row dst of v. Types must match.
func (v *Vector) CopyRow(dst int, from *Vector, src int) {
	if from.IsNull(src) {
		v.SetNull(dst)
		return
	}
	if v.Nulls != nil {
		v.Nulls[dst] = false
	}
	switch v.Type.Kind {
	case types.Float64:
		v.F64[dst] = from.F64[src]
	case types.String:
		v.Str[dst] = from.Str[src]
	default:
		v.I64[dst] = from.I64[src]
	}
}

// CopyRows copies n consecutive physical rows starting at src of from into
// consecutive rows starting at dst of v — the multi-row form of CopyRow for
// gather batching, one slice copy per column instead of one call per row.
// Types must match.
func (v *Vector) CopyRows(dst int, from *Vector, src, n int) {
	switch v.Type.Kind {
	case types.Float64:
		copy(v.F64[dst:dst+n], from.F64[src:src+n])
	case types.String:
		copy(v.Str[dst:dst+n], from.Str[src:src+n])
	default:
		copy(v.I64[dst:dst+n], from.I64[src:src+n])
	}
	if from.Nulls != nil {
		if v.Nulls == nil {
			v.Nulls = make([]bool, v.Len())
		}
		copy(v.Nulls[dst:dst+n], from.Nulls[src:src+n])
	} else if v.Nulls != nil {
		for i := dst; i < dst+n; i++ {
			v.Nulls[i] = false
		}
	}
}

// sameLayout reports whether values of from copy into v verbatim: the same
// kind and, for decimals, the same scale. Other pairs convert through Set.
func (v *Vector) sameLayout(from *Vector) bool {
	return v.Type.Kind == from.Type.Kind && (v.Type.Kind != types.Decimal || v.Type.Scale == from.Type.Scale)
}

// AppendRows appends n rows of from to the end of v: the physical rows
// sel[0:n], or rows 0..n-1 when sel is nil. The backing slices grow
// geometrically, so a column built a batch at a time copies each value
// O(1) times. A from of another layout converts row by row as Set does.
func (v *Vector) AppendRows(from *Vector, sel []int, n int) {
	old := v.Len()
	if !v.sameLayout(from) {
		v.extend(n)
		for i := 0; i < n; i++ {
			r := i
			if sel != nil {
				r = sel[i]
			}
			v.Set(old+i, from.Get(r))
		}
		return
	}
	switch v.Type.Kind {
	case types.Float64:
		v.F64 = appendSel(v.F64, from.F64, sel, n)
	case types.String:
		v.Str = appendSel(v.Str, from.Str, sel, n)
	default:
		v.I64 = appendSel(v.I64, from.I64, sel, n)
	}
	switch {
	case from.Nulls != nil:
		if v.Nulls == nil {
			v.Nulls = make([]bool, old, old+n)
		}
		v.Nulls = appendSel(v.Nulls, from.Nulls, sel, n)
	case v.Nulls != nil:
		v.Nulls = extendBy(v.Nulls, n)
	}
}

func appendSel[E any](dst, src []E, sel []int, n int) []E {
	dst = GrowBy(dst, n)
	if sel == nil {
		return append(dst, src[:n]...)
	}
	for _, r := range sel[:n] {
		dst = append(dst, src[r])
	}
	return dst
}

// GrowBy makes room for n more elements of s, at least doubling the
// capacity when it must reallocate: a column appended to many times
// allocates about twice its final size in total (append's own growth
// tapers to 1.25× for large slices, about five times).
func GrowBy[E any](s []E, n int) []E {
	if cap(s)-len(s) >= n {
		return s
	}
	ns := make([]E, len(s), max(2*cap(s), len(s)+n))
	copy(ns, s)
	return ns
}

// AppendDatum appends d as a new last row, converting as Set does.
func (v *Vector) AppendDatum(d types.Datum) {
	n := v.Len()
	v.extend(1)
	v.Set(n, d)
}

// extend grows the length by n zero, non-NULL rows, geometrically.
func (v *Vector) extend(n int) {
	switch v.Type.Kind {
	case types.Float64:
		v.F64 = extendBy(v.F64, n)
	case types.String:
		v.Str = extendBy(v.Str, n)
	default:
		v.I64 = extendBy(v.I64, n)
	}
	if v.Nulls != nil {
		v.Nulls = extendBy(v.Nulls, n)
	}
}

// extendBy lengthens s by n zero values.
func extendBy[E any](s []E, n int) []E {
	s = GrowBy(s, n)
	s = s[:len(s)+n]
	clear(s[len(s)-n:])
	return s
}

// CapBytes is the memory held by the vector's backing slices at their
// capacity: 8 bytes per int64 or float64 slot, a 16-byte header per string
// slot (the string bytes themselves are not counted), one byte per null
// mask slot.
func (v *Vector) CapBytes() int64 {
	return 8*int64(cap(v.I64)+cap(v.F64)) + 16*int64(cap(v.Str)) + int64(cap(v.Nulls))
}

// Gather copies row idx[k] of from into row dst+k of v for every k — the
// indexed form of CopyRows, one typed loop per column. A negative index
// makes the row NULL (the missing side of an outer join). A from of
// another layout converts row by row as Set does.
func (v *Vector) Gather(dst int, from *Vector, idx []int32) {
	if !v.sameLayout(from) {
		for k, s := range idx {
			if s < 0 {
				v.SetNull(dst + k)
			} else {
				v.Set(dst+k, from.Get(int(s)))
			}
		}
		return
	}
	var missing bool
	switch v.Type.Kind {
	case types.Float64:
		missing = gatherSlice(v.F64[dst:dst+len(idx)], from.F64, idx)
	case types.String:
		missing = gatherSlice(v.Str[dst:dst+len(idx)], from.Str, idx)
	default:
		missing = gatherSlice(v.I64[dst:dst+len(idx)], from.I64, idx)
	}
	switch {
	case missing || from.Nulls != nil:
		if v.Nulls == nil {
			v.Nulls = make([]bool, v.Len())
		}
		out := v.Nulls[dst : dst+len(idx)]
		for k, s := range idx {
			out[k] = s < 0 || (from.Nulls != nil && from.Nulls[s])
		}
	case v.Nulls != nil:
		clear(v.Nulls[dst : dst+len(idx)])
	}
}

func intKind(k types.Kind) bool {
	return k == types.Boolean || k == types.Int32 || k == types.Int64
}

// gatherSlice sets out[k] = src[idx[k]] for every non-negative index and
// reports whether any index was negative.
func gatherSlice[E any](out, src []E, idx []int32) bool {
	missing := false
	for k, s := range idx {
		if s < 0 {
			missing = true
			continue
		}
		out[k] = src[s]
	}
	return missing
}

// KeyEqualFunc returns the join-key equality between rows of a and rows of
// b: eq(i, j) is exactly a.Get(i).Compare(b.Get(j)) == 0, except that NULL
// equals nothing. Vectors of one kind (and, for decimals, one scale)
// compare raw backing values — floats by cmpFloat's !(x<y) && !(x>y), under
// which NaN equals everything — as do two integer kinds (BOOLEAN, INT,
// BIGINT), which Compare orders by raw value; any other pair falls back to
// Compare.
func KeyEqualFunc(a, b *Vector) func(i, j int) bool {
	an, bn := a.Nulls, b.Nulls
	if !a.sameLayout(b) && !(intKind(a.Type.Kind) && intKind(b.Type.Kind)) {
		return func(i, j int) bool {
			if (an != nil && an[i]) || (bn != nil && bn[j]) {
				return false
			}
			return a.Get(i).Compare(b.Get(j)) == 0
		}
	}
	switch a.Type.Kind {
	case types.Float64:
		af, bf := a.F64, b.F64
		return func(i, j int) bool {
			if (an != nil && an[i]) || (bn != nil && bn[j]) {
				return false
			}
			return !(af[i] < bf[j]) && !(af[i] > bf[j])
		}
	case types.String:
		as, bs := a.Str, b.Str
		return func(i, j int) bool {
			if (an != nil && an[i]) || (bn != nil && bn[j]) {
				return false
			}
			return as[i] == bs[j]
		}
	default:
		ai, bi := a.I64, b.I64
		return func(i, j int) bool {
			if (an != nil && an[i]) || (bn != nil && bn[j]) {
				return false
			}
			return ai[i] == bi[j]
		}
	}
}

// Hashing constants for the column-at-a-time key hashing used by hash
// joins and hash aggregation. Combined hashes follow FNV-1a mixing:
// h = h*HashPrime ^ columnHash.
const (
	// HashSeed is the initial value for a combined multi-column key hash.
	HashSeed uint64 = 14695981039346656037
	// HashPrime is the FNV-1a multiplier used to combine column hashes.
	HashPrime uint64 = 1099511628211
	// NullHash is the hash of a NULL value in any column.
	NullHash uint64 = 0x9e3779b97f4a7c15
)

// mix64 is the splitmix64 finalizer, used to spread raw values over the
// whole 64-bit space before FNV combination.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// HashAt returns the hash of physical row r. Values of different numeric
// kinds that compare equal hash equal (INT 3, DOUBLE 3.0 and DECIMAL 3.00
// all hash as integer 3), mirroring types.Datum.Hash semantics without
// materializing a Datum.
func (v *Vector) HashAt(r int) uint64 {
	if v.Nulls != nil && v.Nulls[r] {
		return NullHash
	}
	switch v.Type.Kind {
	case types.String:
		h := HashSeed
		s := v.Str[r]
		for j := 0; j < len(s); j++ {
			h = (h ^ uint64(s[j])) * HashPrime
		}
		return mix64(h ^ 1)
	case types.Float64:
		return hashNumeric(v.F64[r])
	case types.Decimal:
		return hashNumeric(float64(v.I64[r]) / float64(types.Pow10(v.Type.Scale)))
	default:
		return mix64(uint64(v.I64[r]))
	}
}

func hashNumeric(f float64) uint64 {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return mix64(uint64(int64(f)))
	}
	return mix64(math.Float64bits(f))
}

// HashInto folds each live row's hash into dst, one slot per live row:
// dst[i] = dst[i]*HashPrime ^ hash(row i). Callers seed dst (HashSeed for
// the first column, or a raw zero to extract per-column hashes) and call
// HashInto once per key column, hashing column-at-a-time instead of
// materializing per-row datums.
func (v *Vector) HashInto(sel []int, n int, dst []uint64) {
	if sel != nil {
		for i := 0; i < n; i++ {
			dst[i] = dst[i]*HashPrime ^ v.HashAt(sel[i])
		}
		return
	}
	for i := 0; i < n; i++ {
		dst[i] = dst[i]*HashPrime ^ v.HashAt(i)
	}
}

// Batch is a set of equal-length column vectors plus an optional selection
// vector. When Sel is non-nil, only rows Sel[0:N] are live; otherwise rows
// 0..N-1 are live.
type Batch struct {
	Cols []*Vector
	Sel  []int
	N    int
}

// NewBatch allocates a batch with one vector per type, each sized to cap rows.
func NewBatch(ts []types.T, capacity int) *Batch {
	cols := make([]*Vector, len(ts))
	for i, t := range ts {
		cols[i] = New(t, capacity)
	}
	return &Batch{Cols: cols}
}

// Capacity returns the physical row capacity of the batch.
func (b *Batch) Capacity() int {
	if len(b.Cols) == 0 {
		return 0
	}
	return b.Cols[0].Len()
}

// RowIdx maps a live-row ordinal to a physical row index.
func (b *Batch) RowIdx(i int) int {
	if b.Sel != nil {
		return b.Sel[i]
	}
	return i
}

// Row materializes live row i as a slice of datums. Not for hot loops.
func (b *Batch) Row(i int) []types.Datum {
	r := b.RowIdx(i)
	out := make([]types.Datum, len(b.Cols))
	for c, col := range b.Cols {
		out[c] = col.Get(r)
	}
	return out
}

// Compact rewrites the batch so the live rows become physical rows 0..N-1
// and drops the selection vector. This simplifies operators that need dense
// input (e.g. shuffle writers).
func (b *Batch) Compact() {
	if b.Sel == nil {
		return
	}
	for _, col := range b.Cols {
		switch col.Type.Kind {
		case types.Float64:
			for i := 0; i < b.N; i++ {
				col.F64[i] = col.F64[b.Sel[i]]
			}
		case types.String:
			for i := 0; i < b.N; i++ {
				col.Str[i] = col.Str[b.Sel[i]]
			}
		default:
			for i := 0; i < b.N; i++ {
				col.I64[i] = col.I64[b.Sel[i]]
			}
		}
		if col.Nulls != nil {
			for i := 0; i < b.N; i++ {
				col.Nulls[i] = col.Nulls[b.Sel[i]]
			}
		}
	}
	b.Sel = nil
}

// Types returns the column types of the batch.
func (b *Batch) Types() []types.T {
	ts := make([]types.T, len(b.Cols))
	for i, c := range b.Cols {
		ts[i] = c.Type
	}
	return ts
}
