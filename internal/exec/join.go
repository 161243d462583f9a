package exec

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/plan"
	"repro/internal/spill"
	"repro/internal/types"
	"repro/internal/vector"
)

// joinSpillParts is the Grace fan-out: spilled build and probe rows
// partition by key hash across this many file sets, and the
// partition-by-partition probe holds one build partition at a time.
const joinSpillParts = 16

// HashJoinOp joins two inputs. The right input is the build side. Equi-key
// pairs drive the hash table; Residual (over the concatenated left++right
// row) filters the key-equal candidate pairs. Semi/Anti emit only left
// columns; Single enforces the scalar-subquery at-most-one-match guarantee.
//
// The join is columnar end to end. The build appends each input batch to a
// buildPartition's typed columns — payload, evaluated keys and key hashes —
// and indexes them in a flat chained hash table. The probe hashes a probe
// batch's key columns at once, walks each row's chain comparing key
// columns against key columns, and collects (probe row, build row) match
// index arrays; the residual, when present, runs once over a batch of
// candidate pairs gathered from both sides, and the output columns are
// gathered by index from the probe batch and the build columns. No row is
// ever materialized as datums outside the spill codec.
//
// Output order is deterministic for a deterministic build: probe rows in
// order, each probe row's matches in build insertion order, a
// null-extended row at its probe row's place, and the unmatched build rows
// of right/full outer joins last (per Grace partition when spilled).
//
// With Ctx.DOP > 1 the build borrows executor slots: workers evaluate and
// hash key columns in parallel and append to the shared columns under a
// lock. A Shared build lets parallel probe-pipeline clones probe one table.
//
// The build is memory-governed, charged the columnar store's real bytes
// (see buildPartition.bytes). When the query budget denies growth the join
// Grace-partitions: build rows spill to hash-partitioned scratch files,
// probe rows partition to scratch the same way, and the probe then runs
// partition by partition, each reloaded into columns and indexed in
// memory. Matching keys hash equal, so every match pair lands in the same
// partition and the per-partition probes reuse the in-memory probe path.
type HashJoinOp struct {
	Left, Right Operator
	Kind        plan.JoinKind
	LeftKeys    []*CompiledExpr // over left row
	RightKeys   []*CompiledExpr // over right row
	Residual    *CompiledExpr   // over left++right row, may be nil
	Ctx         *Context
	Stats       *RuntimeStats
	// BuildFilter, when non-nil, receives the build-side key values to
	// populate a dynamic semijoin reducer (paper §4.6).
	BuildFilter *RuntimeFilter
	// Shared, when non-nil, holds the build input and its hash table,
	// built exactly once and probed by every worker clone. Clones have a
	// nil Right.
	Shared *sharedBuild

	outTypes []types.T
	rtTypes  []types.T
	leftW    int
	rightW   int
	built    bool
	finished bool
	res      *Reservation

	// part is the probed build: the whole build side in memory, or the
	// loaded Grace partition.
	part      *buildPartition
	probeSrc  func() (*vector.Batch, error) // probe input of part
	srcDone   bool                          // probeSrc is exhausted
	unmatched int                           // next build row to test for right/full emission
	probe     probeCursor

	// Per-step scratch, reused across probe batches: the candidate pairs
	// of one step, the probe rows they belong to, and the residual's
	// verdicts and input batch.
	candL, candR []int32
	spans        []probeSpan
	keep         []bool
	resid        *vector.Batch

	// The output queue: matched (left, right) row indexes in output order,
	// gathered into batches of up to vector.BatchSize. Left indexes refer
	// to outSrc; -1 on either side is a NULL extension.
	outL, outR []int32
	outAt      int
	outSrc     *vector.Batch

	// Grace state: non-nil graceBuild means the build side spilled and the
	// probe runs partition by partition.
	graceBuild [][]string // build partition -> spill files
	probeBufs  []colStore // buffered probe rows per partition
	probeSel   [][]int    // per-partition row selection of one probe batch
	probeFiles [][]string // probe partition -> spill files
	gracePart  int        // partition loaded (or next to load)
}

// colStore is a growable set of typed columns filled a batch (or a spilled
// row) at a time, with the string payload bytes it references counted for
// the governor.
type colStore struct {
	cols     []*vector.Vector
	n        int
	strBytes int64
}

func newColStore(ts []types.T) colStore {
	cols := make([]*vector.Vector, len(ts))
	for i, t := range ts {
		cols[i] = vector.New(t, 0)
	}
	return colStore{cols: cols}
}

// appendRows appends n rows of from: the physical rows sel[0:n], or 0..n-1
// when sel is nil.
func (s *colStore) appendRows(from []*vector.Vector, sel []int, n int) {
	for c, v := range s.cols {
		v.AppendRows(from[c], sel, n)
		if v.Type.Kind == types.String {
			for _, x := range v.Str[s.n:] {
				s.strBytes += int64(len(x))
			}
		}
	}
	s.n += n
}

// appendDatums appends one row given as datums, one per column.
func (s *colStore) appendDatums(row []types.Datum) {
	for c, v := range s.cols {
		v.AppendDatum(row[c])
		s.strBytes += int64(len(row[c].S))
	}
	s.n++
}

// fill writes row r's values into dst[0:len(cols)] — the spill codec's
// datum form.
func (s *colStore) fill(r int, dst []types.Datum) {
	for c, v := range s.cols {
		dst[c] = v.Get(r)
	}
}

// bytes is the store's real footprint: every backing slice at capacity
// (16 bytes per string header), the null masks, and the string payloads.
func (s *colStore) bytes() int64 {
	n := s.strBytes
	for _, v := range s.cols {
		n += v.CapBytes()
	}
	return n
}

// buildPartition is the columnar build side of a join: the whole build in
// memory, or one reloaded Grace partition. Rows are stored in insertion
// order as parallel typed columns — the build input's columns in payload,
// the evaluated equi-key columns in keys, and each row's combined key hash
// in hashes. The hash table is flat: first maps a power-of-two slot to its
// lowest row, next chains each row to the following row of its slot, both
// -1 terminated, so a probe walks a slot's rows in insertion order. Rows
// with a NULL key are stored (right/full outer joins emit them) but never
// chained, since NULL matches nothing. Nested-loop builds (no keys) have
// no table: every row is a candidate.
type buildPartition struct {
	payload colStore
	keys    colStore
	hashes  []uint64
	first   []int32
	next    []int32
	shift   uint   // slot = (hash * fibMul) >> shift
	matched []bool // right/full outer only
}

// fibMul spreads a key hash over the table slots (Fibonacci hashing): the
// high bits of the product depend on every bit of the hash, while the
// hash's low bits are constant within a Grace partition.
const fibMul = 0x9e3779b97f4a7c15

func (j *HashJoinOp) newPartition() *buildPartition {
	kt := make([]types.T, len(j.RightKeys))
	for i, k := range j.RightKeys {
		kt[i] = k.T
	}
	return &buildPartition{payload: newColStore(j.rtTypes), keys: newColStore(kt)}
}

func (p *buildPartition) rows() int { return p.payload.n }

// tableSlots is the hash-table size for n rows: a power of two >= n.
func tableSlots(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// bytes is what the governor is charged for the partition: the columns and
// hashes at capacity, and the hash table sized for the rows held (counted
// from the first row on, so a build that would not fit its table spills
// before building it), and the right/full matched flags.
func (p *buildPartition) bytes() int64 {
	n := p.payload.bytes() + p.keys.bytes() + 8*int64(cap(p.hashes)) + int64(cap(p.matched))
	if len(p.keys.cols) > 0 {
		n += 4*int64(p.rows()) + 4*int64(tableSlots(p.rows()))
	}
	return n
}

// appendBatch adds the live rows of one build batch with their evaluated
// key columns and hashes, returning the growth of bytes().
func (p *buildPartition) appendBatch(b *vector.Batch, keys []*vector.Vector, hs []uint64) int64 {
	before := p.bytes()
	p.payload.appendRows(b.Cols, b.Sel, b.N)
	p.keys.appendRows(keys, b.Sel, b.N)
	p.hashes = append(vector.GrowBy(p.hashes, len(hs)), hs...)
	return p.bytes() - before
}

// index builds the hash table over every stored row. Chains are linked
// back to front so each slot's chain lists its rows in insertion order.
func (p *buildPartition) index() {
	n := p.rows()
	if len(p.keys.cols) == 0 || n == 0 {
		return
	}
	slots := tableSlots(n)
	p.shift = uint(64 - bits.TrailingZeros(uint(slots)))
	p.first = make([]int32, slots)
	for i := range p.first {
		p.first[i] = -1
	}
	p.next = make([]int32, n)
	for r := n - 1; r >= 0; r-- {
		p.next[r] = -1
		if p.nullKey(r) {
			continue
		}
		s := p.slot(p.hashes[r])
		p.next[r] = p.first[s]
		p.first[s] = int32(r)
	}
}

func (p *buildPartition) slot(h uint64) uint64 { return (h * fibMul) >> p.shift }

func (p *buildPartition) nullKey(r int) bool {
	for _, k := range p.keys.cols {
		if k.IsNull(r) {
			return true
		}
	}
	return false
}

// sharedBuild owns the build input of a parallelized join: the first probe
// worker to need the hash table builds it (opening, draining and closing
// the input exactly once); the rest wait and share it. When the build
// Grace-spilled, grace carries the partition files every clone reads (each
// clone spills and replays its own probe share independently) and
// cleanOnce removes them exactly once at Close, after the exchange has
// finished every clone.
type sharedBuild struct {
	right     Operator
	once      sync.Once
	part      *buildPartition
	grace     [][]string
	err       error
	cleanOnce sync.Once
}

// probeCursor is the position of the probe within one probe batch: the
// next row to start, and for a row whose candidates overflowed a step, the
// rest of its chain and the matches found so far.
type probeCursor struct {
	b    *vector.Batch
	keys []*vector.Vector
	hs   []uint64
	eq   []func(i, j int) bool // probe key column vs build key column
	i    int                   // live-row ordinal of the current row
	open bool                  // row i has started and pos continues it
	pos  int32                 // next candidate build row, -1 when none
	// matches of the open row found by earlier steps.
	matches int
}

// probeSpan is one probe row's slice of a step's candidate pairs: they end
// at end and begin where the previous span ended.
type probeSpan struct {
	row     int32 // physical probe row
	end     int
	carried int  // matches found for the row by earlier steps
	done    bool // the row's candidates are exhausted
}

// Types implements Operator.
func (j *HashJoinOp) Types() []types.T {
	if j.outTypes == nil {
		lt := j.Left.Types()
		rt := j.Right.Types()
		switch j.Kind {
		case plan.Semi, plan.Anti:
			j.outTypes = lt
		default:
			j.outTypes = append(append([]types.T{}, lt...), rt...)
		}
		j.leftW = len(lt)
		j.rightW = len(rt)
		j.rtTypes = rt
	}
	return j.outTypes
}

// Open implements Operator.
func (j *HashJoinOp) Open() error {
	j.Types()
	j.built, j.finished = false, false
	j.part, j.probeSrc, j.srcDone, j.unmatched = nil, nil, false, 0
	j.probe = probeCursor{}
	j.outL, j.outR, j.outAt, j.outSrc = j.outL[:0], j.outR[:0], 0, nil
	j.graceBuild, j.probeBufs, j.probeFiles = nil, nil, nil
	j.gracePart = 0
	j.res = nil
	if j.Ctx != nil {
		j.res = j.Ctx.Governor().Reserve("hashjoin")
	}
	if err := j.Left.Open(); err != nil {
		return err
	}
	if j.Right != nil && j.Shared == nil {
		return j.Right.Open()
	}
	return nil
}

// build produces the hash table — or, when the build side spilled, the
// Grace partition files — publishing the semijoin reducer exactly once
// even on failure so parallel scan workers blocked on it can always
// proceed.
func (j *HashJoinOp) build() error {
	var err error
	if j.Shared != nil {
		j.Shared.once.Do(func() {
			j.Shared.part, j.Shared.grace, j.Shared.err = j.runSharedBuild()
		})
		j.part, j.graceBuild, err = j.Shared.part, j.Shared.grace, j.Shared.err
	} else {
		j.part, j.graceBuild, err = j.buildPartition(j.Right)
		if j.BuildFilter != nil {
			j.finishBuildFilter(err)
		}
	}
	if err != nil {
		return err
	}
	j.built = true
	if j.graceBuild != nil {
		// Partition the whole probe side to scratch, then probe the
		// partitions one at a time.
		if err := j.spillProbe(); err != nil {
			return err
		}
		return j.loadGracePart()
	}
	j.trackMatches(j.part)
	j.probeSrc = j.Left.Next
	return nil
}

// trackMatches gives a right/full outer join's probed partition its
// matched flags, charged like the rest of the partition.
func (j *HashJoinOp) trackMatches(p *buildPartition) {
	if j.Kind == plan.Right || j.Kind == plan.Full {
		p.matched = make([]bool, p.rows())
		j.res.ForceGrow(int64(len(p.matched)))
	}
}

func (j *HashJoinOp) runSharedBuild() (*buildPartition, [][]string, error) {
	var part *buildPartition
	var grace [][]string
	err := j.Shared.right.Open()
	if err == nil {
		part, grace, err = j.buildPartition(j.Shared.right)
		if cerr := j.Shared.right.Close(); err == nil {
			err = cerr
		}
	}
	if j.BuildFilter != nil {
		j.finishBuildFilter(err)
	}
	return part, grace, err
}

// finishBuildFilter publishes the semijoin reducer; a failed build resets
// it to a pass-through first so no rows are wrongly pruned.
func (j *HashJoinOp) finishBuildFilter(err error) {
	f := j.BuildFilter
	if err != nil {
		f.Bloom, f.Values = nil, nil
		f.Min, f.Max = types.Datum{}, types.Datum{}
	} else {
		finishFilter(f)
	}
	f.Publish()
}

// buildPartition drains the build input into a columnar partition and
// indexes it. With Ctx.DOP > 1 it borrows executor slots: workers take
// batches from a feeder channel, evaluate and hash their key columns in
// parallel, and append them to the partition under a lock.
//
// The parallel build runs until the governor first denies a reservation:
// the workers stop, everything appended Grace-flushes to hash-partitioned
// spill files, and the rest of the input continues on the single-threaded
// spilling loop — so a budgeted build that fits keeps the full parallel
// speedup and only an actual overflow pays the serial Grace path,
// returning partition files instead of an in-memory table. Nested-loop
// builds (no equi keys) cannot Grace-partition — every probe row must see
// every build row — so they force-grow instead.
func (j *HashJoinOp) buildPartition(right Operator) (*buildPartition, [][]string, error) {
	dop, release := 1, func() {}
	if j.Ctx != nil && j.Ctx.DOP > 1 {
		extra, rel := j.Ctx.AcquireExtra(j.Ctx.DOP - 1)
		dop, release = 1+extra, rel
	}
	defer release()

	var limit int64
	if j.Ctx != nil {
		limit = j.Ctx.MemoryLimitRows
	}
	var total atomic.Int64
	part := j.newPartition()
	_, spillable := j.Ctx.spillTarget()
	canGrace := spillable && len(j.RightKeys) > 0

	var err error
	if dop > 1 {
		var graceNeeded atomic.Bool
		var mu sync.Mutex
		feed := make(chan *vector.Batch, dop)
		errs := make([]error, dop)
		var failed atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < dop; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for b := range feed {
					if errs[w] != nil {
						continue // drain after failure
					}
					keys, hs, kerr := j.evalBuildKeys(b)
					if kerr != nil {
						errs[w] = kerr
						failed.Store(true)
						continue
					}
					mu.Lock()
					sz := part.appendBatch(b, keys, hs)
					mu.Unlock()
					if errs[w] = rowLimit(&total, b.N, limit); errs[w] != nil {
						failed.Store(true)
					}
					if !j.res.Grow(sz) {
						// Appended either way; keep accounting exact and
						// signal the Grace switch (unless this build can
						// only ever stay in memory).
						j.res.ForceGrow(sz)
						if canGrace {
							graceNeeded.Store(true)
						}
					}
				}
			}(w)
		}
		for !failed.Load() && !graceNeeded.Load() {
			if err = j.Ctx.CheckCanceled(); err != nil {
				break
			}
			b, ferr := right.Next()
			if ferr != nil {
				err = ferr
				break
			}
			if b == nil {
				break
			}
			feed <- b
		}
		close(feed)
		wg.Wait()
		for _, werr := range errs {
			if err == nil && werr != nil {
				err = werr
			}
		}
		if err == nil && graceNeeded.Load() {
			part, err = j.flushBuildSpill(part)
		}
	}
	if err == nil && (dop == 1 || j.graceBuild != nil) {
		// Serial: consume inline (the whole input, or whatever the
		// parallel build left after the Grace switch).
		for err == nil {
			if err = j.Ctx.CheckCanceled(); err != nil {
				break
			}
			var b *vector.Batch
			b, err = right.Next()
			if err != nil || b == nil {
				break
			}
			keys, hs, kerr := j.evalBuildKeys(b)
			if kerr != nil {
				err = kerr
				break
			}
			sz := part.appendBatch(b, keys, hs)
			err = rowLimit(&total, b.N, limit)
			if err != nil || j.res.Grow(sz) {
				continue
			}
			// The appended rows are resident either way; take the bytes,
			// then Grace-flush once enough has accumulated. Nested-loop
			// builds (no equi keys) can never flush.
			j.res.ForceGrow(sz)
			if !canGrace || !j.res.ShouldSpill() {
				continue
			}
			part, err = j.flushBuildSpill(part)
		}
	}
	if err != nil {
		return nil, nil, err
	}

	if j.graceBuild != nil {
		// The build spilled at least once: flush the remainder so the
		// whole build side is on disk, partitioned by key hash.
		if _, err := j.flushBuildSpill(part); err != nil {
			return nil, nil, err
		}
		return nil, j.graceBuild, nil
	}
	part.index()
	if j.BuildFilter != nil {
		feedFilter(j.BuildFilter, part)
	}
	return part, nil, nil
}

// evalBuildKeys evaluates a build batch's key columns and their combined
// hashes, one per live row.
func (j *HashJoinOp) evalBuildKeys(b *vector.Batch) ([]*vector.Vector, []uint64, error) {
	keys, err := evalKeys(j.RightKeys, b)
	if err != nil {
		return nil, nil, err
	}
	return keys, hashKeys(keys, b, nil), nil
}

func evalKeys(exprs []*CompiledExpr, b *vector.Batch) ([]*vector.Vector, error) {
	keys := make([]*vector.Vector, len(exprs))
	for i, k := range exprs {
		v, err := k.Eval(b)
		if err != nil {
			return nil, err
		}
		keys[i] = v
	}
	return keys, nil
}

// rowLimit adds n build rows to the running total and reports the
// MemoryLimitRows simulation's pressure error once it is exceeded.
func rowLimit(total *atomic.Int64, n int, limit int64) error {
	if rows := total.Add(int64(n)); limit > 0 && rows > limit {
		return ErrMemoryPressure{Operator: "hash join build", Rows: rows}
	}
	return nil
}

// flushBuildSpill Grace-partitions the partition's rows into per-partition
// spill files — each row serialized as its key hash, key values and data
// row, so partition reloads rebuild the hash index without re-evaluating
// key expressions — frees their memory, and returns an empty partition to
// continue the build in. The semijoin reducer is fed here, since spilled
// rows never reach the in-memory filter pass.
func (j *HashJoinOp) flushBuildSpill(part *buildPartition) (*buildPartition, error) {
	if j.graceBuild == nil {
		j.graceBuild = make([][]string, joinSpillParts)
	}
	if j.BuildFilter != nil {
		feedFilter(j.BuildFilter, part)
	}
	buckets := make([][]int32, joinSpillParts)
	for r, h := range part.hashes {
		p := h % joinSpillParts
		buckets[p] = append(buckets[p], int32(r))
	}
	nk := len(part.keys.cols)
	width := 1 + nk + len(part.payload.cols)
	for p, rows := range buckets {
		if len(rows) == 0 {
			continue
		}
		path, err := writeRunRows(j.Ctx, fmt.Sprintf("join_build_p%02d", p), len(rows), width, func(i int, row []types.Datum) {
			r := int(rows[i])
			row[0] = types.NewBigint(int64(part.hashes[r]))
			part.keys.fill(r, row[1:])
			part.payload.fill(r, row[1+nk:])
		})
		if err != nil {
			return nil, err
		}
		j.graceBuild[p] = append(j.graceBuild[p], path)
	}
	j.res.Release()
	return j.newPartition(), nil
}

// feedFilter adds the partition's non-NULL first-key values to the
// semijoin reducer in row order.
func feedFilter(f *RuntimeFilter, part *buildPartition) {
	if len(part.keys.cols) == 0 {
		return
	}
	k := part.keys.cols[0]
	for r := 0; r < part.rows(); r++ {
		if !k.IsNull(r) {
			updateFilter(f, k.Get(r))
		}
	}
}

// maxFilterValues bounds the reducer's value list for dynamic partition
// pruning: it keeps collecting until it holds one value more than this,
// which finishFilter reads as "too many" and drops.
const maxFilterValues = 10000

func updateFilter(f *RuntimeFilter, d types.Datum) {
	if f.Bloom == nil {
		f.Bloom = NewBloom(4096)
	}
	f.Bloom.Add(d.Hash())
	if f.Min.K == types.Unknown || d.Compare(f.Min) < 0 {
		f.Min = d
	}
	if f.Max.K == types.Unknown || d.Compare(f.Max) > 0 {
		f.Max = d
	}
	if len(f.Values) <= maxFilterValues {
		f.Values = append(f.Values, d)
	}
}

func finishFilter(f *RuntimeFilter) {
	if len(f.Values) > maxFilterValues {
		f.Values = nil // too many values for dynamic partition pruning
	}
}

// hashKeys computes the combined key hash of every live row in the batch,
// column-at-a-time over the key vectors, into dst (reallocated when too
// small).
func hashKeys(cols []*vector.Vector, b *vector.Batch, dst []uint64) []uint64 {
	if cap(dst) < b.N {
		dst = make([]uint64, b.N)
	}
	hs := dst[:b.N]
	for i := range hs {
		hs[i] = vector.HashSeed
	}
	for _, c := range cols {
		c.HashInto(b.Sel, b.N, hs)
	}
	return hs
}

// Next implements Operator.
func (j *HashJoinOp) Next() (*vector.Batch, error) {
	if !j.built {
		if err := j.build(); err != nil {
			return nil, err
		}
	}
	for {
		if out := j.emit(); out != nil {
			if j.Stats != nil {
				j.Stats.Rows.Add(int64(out.N))
			}
			return out, nil
		}
		switch {
		case j.finished:
			return nil, nil
		case j.probe.b != nil:
			if err := j.probeStep(); err != nil {
				return nil, err
			}
		case !j.srcDone:
			b, err := j.probeSrc()
			if err != nil {
				return nil, err
			}
			if b == nil {
				j.srcDone, j.outSrc = true, nil
				continue
			}
			if err := j.startProbe(b); err != nil {
				return nil, err
			}
		case j.part.matched != nil && j.unmatched < j.part.rows():
			j.queueUnmatched()
		case j.graceBuild == nil:
			j.finished = true
		default:
			// The loaded Grace partition is done: drop it and its files,
			// then load the next.
			j.freeGracePart()
			if j.gracePart >= joinSpillParts {
				j.finished = true
				continue
			}
			if err := j.loadGracePart(); err != nil {
				return nil, err
			}
		}
	}
}

// emit gathers the next output batch from the queue: a full batch, or
// whatever is queued once the current probe batch is exhausted (its left
// rows are gathered from it, so they must leave before the next arrives).
func (j *HashJoinOp) emit() *vector.Batch {
	n := len(j.outL) - j.outAt
	if n == 0 || (n < vector.BatchSize && j.probe.b != nil) {
		return nil
	}
	if n > vector.BatchSize {
		n = vector.BatchSize
	}
	out := vector.NewBatch(j.outTypes, n)
	li := j.outL[j.outAt : j.outAt+n]
	for c := 0; c < j.leftW; c++ {
		col := out.Cols[c]
		if j.outSrc == nil {
			// Unmatched build rows of a right/full join: no left side.
			for r := 0; r < n; r++ {
				col.SetNull(r)
			}
			continue
		}
		col.Gather(0, j.outSrc.Cols[c], li)
	}
	if len(j.outTypes) > j.leftW {
		ri := j.outR[j.outAt : j.outAt+n]
		for c := 0; c < j.rightW; c++ {
			out.Cols[j.leftW+c].Gather(0, j.part.payload.cols[c], ri)
		}
	}
	out.N = n
	j.outAt += n
	if j.outAt == len(j.outL) {
		j.outL, j.outR, j.outAt = j.outL[:0], j.outR[:0], 0
	}
	return out
}

// startProbe positions the cursor at the first row of a probe batch:
// its key columns evaluated and hashed, and one key comparator per key
// column against the build's.
func (j *HashJoinOp) startProbe(b *vector.Batch) error {
	if b.N == 0 {
		return nil
	}
	keys, err := evalKeys(j.LeftKeys, b)
	if err != nil {
		return err
	}
	c := &j.probe
	c.b, c.keys, c.i, c.open = b, keys, 0, false
	c.eq = c.eq[:0]
	if len(keys) > 0 {
		c.hs = hashKeys(keys, b, c.hs)
		for k, kc := range keys {
			c.eq = append(c.eq, vector.KeyEqualFunc(kc, j.part.keys.cols[k]))
		}
	}
	j.outSrc = b
	return nil
}

// probeStep advances the probe by one step of at most vector.BatchSize
// candidate pairs: it walks the probe rows' chains collecting key-equal
// (probe row, build row) candidates, filters them through the residual
// in one batch, and queues the output of every probe row it touched. A
// row whose chain outlasts the step stays open and resumes in the next.
func (j *HashJoinOp) probeStep() error {
	c := &j.probe
	p := j.part
	nested := len(j.LeftKeys) == 0
	existence := j.Kind == plan.Semi || j.Kind == plan.Anti
	j.candL, j.candR, j.spans = j.candL[:0], j.candR[:0], j.spans[:0]
	for c.i < c.b.N && len(j.candR) < vector.BatchSize {
		r := c.b.RowIdx(c.i)
		carried := 0
		if !c.open {
			c.open, c.matches, c.pos = true, 0, -1
			switch {
			case nested:
				if p.rows() > 0 {
					c.pos = 0
				}
			case p.first != nil && !anyNull(c.keys, r):
				c.pos = p.first[p.slot(c.hs[c.i])]
			}
		} else {
			carried = c.matches
			if existence && carried > 0 {
				c.pos = -1 // an earlier step already found the row's match
			}
		}
		var h uint64
		if !nested {
			h = c.hs[c.i]
		}
		for c.pos >= 0 && len(j.candR) < vector.BatchSize {
			s := c.pos
			if nested {
				if c.pos++; int(c.pos) >= p.rows() {
					c.pos = -1
				}
			} else {
				c.pos = p.next[s]
				if p.hashes[s] != h || !keysMatch(c.eq, r, int(s)) {
					continue
				}
			}
			j.candL = append(j.candL, int32(r))
			j.candR = append(j.candR, s)
			if existence && j.Residual == nil {
				c.pos = -1 // one match decides a semi/anti row
			}
		}
		done := c.pos < 0
		j.spans = append(j.spans, probeSpan{row: int32(r), end: len(j.candR), carried: carried, done: done})
		if !done {
			break
		}
		c.open = false
		c.i++
	}
	keep, err := j.filterResidual()
	if err != nil {
		return err
	}
	if err := j.queueMatches(keep); err != nil {
		return err
	}
	if c.i >= c.b.N {
		c.b = nil
	}
	return nil
}

func anyNull(cols []*vector.Vector, r int) bool {
	for _, v := range cols {
		if v.IsNull(r) {
			return true
		}
	}
	return false
}

func keysMatch(eq []func(i, j int) bool, r, s int) bool {
	for _, f := range eq {
		if !f(r, s) {
			return false
		}
	}
	return true
}

// filterResidual evaluates the residual once over the step's candidate
// pairs, gathered from both sides into one left++right batch, and returns
// which pairs pass (nil: no residual, all pass).
func (j *HashJoinOp) filterResidual() ([]bool, error) {
	n := len(j.candR)
	if j.Residual == nil || n == 0 {
		return nil, nil
	}
	if j.resid == nil {
		ts := append(append([]types.T{}, j.Left.Types()...), j.rtTypes...)
		j.resid = vector.NewBatch(ts, vector.BatchSize)
	}
	rb := j.resid
	for c := 0; c < j.leftW; c++ {
		rb.Cols[c].Gather(0, j.probe.b.Cols[c], j.candL)
	}
	for c := 0; c < j.rightW; c++ {
		rb.Cols[j.leftW+c].Gather(0, j.part.payload.cols[c], j.candR)
	}
	rb.N = n
	v, err := j.Residual.Eval(rb)
	if err != nil {
		return nil, err
	}
	j.keep = j.keep[:0]
	for k := 0; k < n; k++ {
		j.keep = append(j.keep, !v.IsNull(k) && v.I64[k] != 0)
	}
	return j.keep, nil
}

// queueMatches turns the step's surviving pairs into output rows per probe
// row, in probe order: inner/outer pairs as they are (marking the build
// rows matched for right/full), a semi row at its first match, an anti or
// null-extended row once its candidates are exhausted without one. A
// single join fails on a probe row's second match.
func (j *HashJoinOp) queueMatches(keep []bool) error {
	c := &j.probe
	matched := j.part.matched
	start := 0
	for _, sp := range j.spans {
		found := 0
		for k := start; k < sp.end; k++ {
			if keep != nil && !keep[k] {
				continue
			}
			found++
			switch j.Kind {
			case plan.Semi, plan.Anti:
				continue
			}
			j.outL = append(j.outL, j.candL[k])
			j.outR = append(j.outR, j.candR[k])
			if matched != nil {
				matched[j.candR[k]] = true
			}
		}
		start = sp.end
		total := sp.carried + found
		switch j.Kind {
		case plan.Semi:
			if sp.carried == 0 && found > 0 {
				j.outL = append(j.outL, sp.row)
			}
		case plan.Anti:
			if sp.done && total == 0 {
				j.outL = append(j.outL, sp.row)
			}
		case plan.Single:
			if total > 1 {
				return fmt.Errorf("exec: scalar subquery returned more than one row")
			}
			fallthrough
		case plan.Left, plan.Full:
			if sp.done && total == 0 {
				j.outL = append(j.outL, sp.row)
				j.outR = append(j.outR, -1)
			}
		}
		if !sp.done {
			c.matches = total
		}
	}
	return nil
}

// queueUnmatched queues up to a batch of the partition's unmatched build
// rows, null-extended on the left (right/full outer).
func (j *HashJoinOp) queueUnmatched() {
	p := j.part
	for j.unmatched < p.rows() && len(j.outL) < vector.BatchSize {
		r := j.unmatched
		j.unmatched++
		if !p.matched[r] {
			j.outL = append(j.outL, -1)
			j.outR = append(j.outR, int32(r))
		}
	}
}

// spillProbe partitions the whole probe input to scratch by key hash,
// buffering each partition's rows in columns and flushing every buffer
// when the governor denies their growth.
func (j *HashJoinOp) spillProbe() error {
	for {
		if err := j.Ctx.CheckCanceled(); err != nil {
			return err
		}
		b, err := j.Left.Next()
		if err != nil {
			return err
		}
		if b == nil {
			return j.flushProbeBufs()
		}
		if err := j.spillProbeBatch(b); err != nil {
			return err
		}
	}
}

// spillProbeBatch appends one probe batch's rows to their partitions'
// buffers, flushing every buffer to scratch when the governor denies the
// growth.
func (j *HashJoinOp) spillProbeBatch(b *vector.Batch) error {
	keys, err := evalKeys(j.LeftKeys, b)
	if err != nil {
		return err
	}
	hs := hashKeys(keys, b, j.probe.hs)
	j.probe.hs = hs
	if j.probeBufs == nil {
		lt := j.Left.Types()
		j.probeBufs = make([]colStore, joinSpillParts)
		for p := range j.probeBufs {
			j.probeBufs[p] = newColStore(lt)
		}
		j.probeSel = make([][]int, joinSpillParts)
	}
	for p := range j.probeSel {
		j.probeSel[p] = j.probeSel[p][:0]
	}
	for i, h := range hs {
		p := h % joinSpillParts
		j.probeSel[p] = append(j.probeSel[p], b.RowIdx(i))
	}
	var sz int64
	for p, sel := range j.probeSel {
		if len(sel) == 0 {
			continue
		}
		buf := &j.probeBufs[p]
		before := buf.bytes()
		buf.appendRows(b.Cols, sel, len(sel))
		sz += buf.bytes() - before
	}
	if j.res.Grow(sz) {
		return nil
	}
	j.res.ForceGrow(sz)
	if !j.res.ShouldSpill() {
		return nil // too little buffered for a flush worth its files
	}
	return j.flushProbeBufs()
}

// flushProbeBufs writes every buffered probe partition to scratch and
// frees the buffers.
func (j *HashJoinOp) flushProbeBufs() error {
	if j.probeBufs == nil {
		return nil
	}
	if j.probeFiles == nil {
		j.probeFiles = make([][]string, joinSpillParts)
	}
	lt := j.Left.Types()
	for p := range j.probeBufs {
		buf := &j.probeBufs[p]
		if buf.n == 0 {
			continue
		}
		path, err := writeRunRows(j.Ctx, fmt.Sprintf("join_probe_p%02d", p), buf.n, len(lt), buf.fill)
		if err != nil {
			return err
		}
		j.probeFiles[p] = append(j.probeFiles[p], path)
		*buf = newColStore(lt)
	}
	j.res.Release()
	return nil
}

// loadGracePart reloads partition gracePart's build rows from its spill
// files straight into a partition's columns, indexes them (single-level
// Grace: one partition is assumed to fit once loaded), and queues its
// probe files for replay.
func (j *HashJoinOp) loadGracePart() error {
	fs, _ := j.Ctx.spillTarget()
	part := j.newPartition()
	nk := len(j.RightKeys)
	width := 1 + nk + len(j.rtTypes)
	var bad bool
	load := func(row []types.Datum) {
		if len(row) != width {
			bad = true
			return
		}
		part.hashes = append(vector.GrowBy(part.hashes, 1), uint64(row[0].I))
		part.keys.appendDatums(row[1 : 1+nk])
		part.payload.appendDatums(row[1+nk:])
	}
	for _, path := range j.graceBuild[j.gracePart] {
		r, err := spill.OpenReader(fs, path)
		if err != nil {
			return err
		}
		for more := true; more; {
			if err := j.Ctx.CheckCanceled(); err != nil {
				return err
			}
			if more, err = r.NextFunc(load); err != nil {
				return err
			}
			if bad {
				return fmt.Errorf("exec: truncated spilled join build row")
			}
		}
	}
	part.index()
	j.res.ForceGrow(part.bytes())
	j.trackMatches(part)
	j.part = part
	var probeFiles []string
	if j.probeFiles != nil {
		probeFiles = j.probeFiles[j.gracePart]
	}
	// The partition's probe rows stream back through the shared run-file
	// puller (merge.go), one block resident at a time.
	j.probeSrc = runFilePuller(fs, probeFiles, j.Left.Types())
	j.srcDone, j.unmatched = false, 0
	return nil
}

// freeGracePart drops the loaded partition, removes its spill files and
// moves to the next. Shared-build clones keep the shared build files —
// other clones may still need them; sharedBuild removes them once at
// Close.
func (j *HashJoinOp) freeGracePart() {
	p := j.gracePart
	if fs, ok := j.Ctx.spillTarget(); ok {
		if j.Shared == nil {
			for _, path := range j.graceBuild[p] {
				fs.Remove(path, false)
			}
			j.graceBuild[p] = nil
		}
		if j.probeFiles != nil {
			for _, path := range j.probeFiles[p] {
				fs.Remove(path, false)
			}
			j.probeFiles[p] = nil
		}
	}
	j.part = nil
	j.probeSrc = nil
	j.res.Release()
	j.gracePart++
}

// Close implements Operator. Any Grace spill files still on disk — the
// probe never ran, or ended early on error or a satisfied LIMIT — are
// removed; shared build files are removed exactly once, after the
// exchange has finished every clone.
func (j *HashJoinOp) Close() error {
	if fs, ok := j.Ctx.spillTarget(); ok && j.graceBuild != nil {
		removeBuild := func() {
			for _, files := range j.graceBuild {
				for _, path := range files {
					fs.Remove(path, false)
				}
			}
		}
		if j.Shared != nil {
			j.Shared.cleanOnce.Do(removeBuild)
		} else {
			removeBuild()
		}
		for _, files := range j.probeFiles {
			for _, path := range files {
				fs.Remove(path, false)
			}
		}
	}
	j.part, j.probeSrc, j.probe, j.outSrc, j.resid = nil, nil, probeCursor{}, nil, nil
	j.graceBuild, j.probeBufs, j.probeFiles = nil, nil, nil
	j.res.Release()
	err := j.Left.Close()
	if j.Right != nil && j.Shared == nil {
		if cerr := j.Right.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
