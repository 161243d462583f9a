package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	hive "repro"
	"repro/internal/analyze"
	"repro/internal/dfs"
	"repro/internal/hs2"
	"repro/internal/llap"
	"repro/internal/opt"
	"repro/internal/sql"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share Op; Parent is the index of the enclosing span, -1 for the root.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and per-operation records in memory; write dumps
// them once the run is over, so tracing never does I/O mid-run.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	records []opRecord
	nextOp  int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) newOp() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextOp++
	return t.nextOp
}

// begin opens a span and returns its index.
func (t *tracer) begin(op int64, parent int, name string) int {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: start, End: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	end := t.now()
	t.mu.Lock()
	t.spans[i].End = end
	t.mu.Unlock()
}

// add records a span whose bounds are known rather than timed here (the
// compile interval the program reports about itself).
func (t *tracer) add(op int64, parent int, name string, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: start, End: end})
	t.mu.Unlock()
}

func (t *tracer) record(r opRecord) {
	t.mu.Lock()
	t.records = append(t.records, r)
	t.mu.Unlock()
}

// write dumps every span and record as JSON lines.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans, records := t.spans, t.records
	t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(map[string]any{"span": s}); err != nil {
			return err
		}
	}
	for _, r := range records {
		if err := enc.Encode(map[string]any{"record": r}); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// layerTime is the summed self time and count of one span name.
type layerTime struct {
	Self  time.Duration
	Count int
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it that its children cover. Children of one
// span may overlap one another; the covered part is their union, clipped
// to the parent.
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]layerTime{}
	for i, s := range spans {
		if s.End < s.Start {
			continue // never closed
		}
		var iv [][2]int64
		for _, c := range children[i] {
			cs, ce := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if ce > cs {
				iv = append(iv, [2]int64{cs, ce})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, curS, curE int64
		curS, curE = -1, -1
		for _, v := range iv {
			if v[0] > curE {
				covered += curE - curS
				curS, curE = v[0], v[1]
			} else if v[1] > curE {
				curE = v[1]
			}
		}
		covered += curE - curS
		lt := out[s.Name]
		lt.Self += time.Duration(s.End - s.Start - covered)
		lt.Count++
		out[s.Name] = lt
	}
	return out
}

// opRecord is what the traced run keeps per operation. The exec-side
// fields are pointers: nil means the program did not run the plan for
// this operation (a result-cache hit, a failed statement, DML), so the
// session's Last* fields still describe an earlier query and must not be
// read as this one's.
type opRecord struct {
	Op              int64  `json:"op"`
	Class           string `json:"class"`
	Query           bool   `json:"query"`
	Err             bool   `json:"err,omitempty"`
	CacheHit        bool   `json:"cache_hit,omitempty"`
	QueuedAtArrival *int   `json:"queued_at_arrival,omitempty"`
	Reexecutions    int    `json:"reexecutions,omitempty"`
	execSide
}

type execSide struct {
	CompileNs      *int64 `json:"compile_ns,omitempty"`
	StripesSkipped *int64 `json:"stripes_skipped,omitempty"`
	PeakMemBytes   *int64 `json:"peak_mem_bytes,omitempty"`
	SpilledBytes   *int64 `json:"spilled_bytes,omitempty"`
	DecodedHits    *int64 `json:"decoded_hits,omitempty"`
	DecodedMisses  *int64 `json:"decoded_misses,omitempty"`
}

// captureExecSide reads the session's per-query observability after one
// statement. Compile time is reported for every query that compiled (a
// result-cache hit still compiles first); the execution counters only
// when the plan actually ran, never carried over from the previous query.
func captureExecSide(in *hs2.Session, query bool, err error) execSide {
	var e execSide
	if !query || err != nil {
		return e
	}
	e.CompileNs = ptr(in.LastCompileNanos)
	if in.LastCacheHit {
		return e
	}
	e.StripesSkipped = ptr(in.LastStripesSkipped)
	e.PeakMemBytes = ptr(in.LastPeakMemoryBytes)
	e.SpilledBytes = ptr(in.LastSpilledBytes)
	e.DecodedHits = ptr(in.LastDecodedCacheHits)
	e.DecodedMisses = ptr(in.LastDecodedCacheMisses)
	return e
}

func ptr[T any](v T) *T { return &v }

// isQuery reports whether a statement text is a SELECT or an EXECUTE of
// a prepared SELECT, the statements that go through the query path.
func isQuery(text string) bool {
	t := strings.TrimSpace(text)
	return len(t) >= 7 && (strings.EqualFold(t[:6], "SELECT") || strings.EqualFold(t[:7], "EXECUTE"))
}

// executor runs one statement for a workload. Untraced (no tracer, or
// tracing off for the current slice), it is a plain Session.Exec. Traced,
// it first replays the compile layers' public calls
// on the statement (parse, parameterize, analyze, optimize) under their
// own spans, then times Session.Execute with the program-reported compile
// interval as a child span, and records the operation.
type executor struct {
	srv *hs2.Server
	tr  *tracer
	// off pauses tracing. The meter sets it for the even slices of a
	// window, so the untraced operations the tracing overhead is measured
	// against run beside the traced ones, not before them.
	off  atomic.Bool
	pool string // workload-management pool sampled at arrival; "" = none
}

func (x *executor) exec(s *hive.Session, class, text string) (*hive.Result, error) {
	if x.tr == nil || x.off.Load() {
		return s.Exec(text)
	}
	t := x.tr
	query := isQuery(text)
	op := t.newOp()
	rec := opRecord{Op: op, Class: class, Query: query}
	if x.pool != "" {
		// The pool admits one query at a time, so everything running or
		// queued when a request arrives is ahead of it in the queue.
		if mgr := x.srv.WorkloadManager(); mgr != nil {
			if st, err := mgr.Stats(x.pool); err == nil {
				rec.QueuedAtArrival = ptr(st.Running + st.Queued)
			}
		}
	}
	root := t.begin(op, -1, "op")
	x.replay(op, root, text)
	in := s.Internal()
	reexec := in.Reexecutions
	ex := t.begin(op, root, "hs2.execute")
	res, err := s.Exec(text)
	t.end(ex)
	t.end(root)
	rec.Err = err != nil
	rec.CacheHit = query && err == nil && in.LastCacheHit
	rec.Reexecutions = in.Reexecutions - reexec
	rec.execSide = captureExecSide(in, query, err)
	if rec.CompileNs != nil {
		t.mu.Lock()
		start := t.spans[ex].Start
		t.mu.Unlock()
		t.add(op, ex, "hs2.compile", start, start+*rec.CompileNs)
	}
	t.record(rec)
	return res, err
}

// replay times the compile layers on a SELECT. The replayed calls are
// extra work (the real compile happens again inside Session.Execute, or
// is skipped by the plan cache); their spans measure each layer's cost
// per statement, not the share of the served latency.
func (x *executor) replay(op int64, root int, text string) {
	t := x.tr
	sp := t.begin(op, root, "sql.parse")
	st, err := sql.Parse(text)
	t.end(sp)
	sel, ok := st.(*sql.SelectStmt)
	if err != nil || !ok {
		return
	}
	sp = t.begin(op, root, "sql.parameterize")
	sql.Parameterize(sel)
	t.end(sp)
	sp = t.begin(op, root, "analyze.select")
	rel, err := analyze.New(x.srv.MS, "default").AnalyzeSelect(sel)
	t.end(sp)
	if err != nil {
		return
	}
	sp = t.begin(op, root, "opt.optimize")
	opt.New(x.srv.MS, opt.AllOn()).Optimize(rel)
	t.end(sp)
}

// layerStats is one reading of every layer's public counters.
type layerStats struct {
	Chunk    llap.CacheStats
	Meta     llap.MetaStats
	Decoded  llap.DecodedCacheStats
	Elevator llap.ElevatorStats
	PlanHits int64
	PlanMiss int64
	ResHits  int64
	ResMiss  int64
	ResWaits int64
	IO       dfs.Stats
}

func readLayers(srv *hs2.Server) layerStats {
	var l layerStats
	l.Chunk = srv.Cache.Stats()
	l.Meta = srv.MetaCache.Stats()
	l.Decoded = srv.Decoded.Stats()
	l.Elevator = srv.Elevator.Stats()
	l.PlanHits, l.PlanMiss = srv.Plans.Stats()
	l.ResHits, l.ResMiss, l.ResWaits = srv.Results.Stats()
	l.IO = srv.FS.IOStats()
	return l
}

// sub returns the counter deltas b-a. Gauges (used bytes, entries, queue
// depth) are not deltas and keep b's reading.
func (b layerStats) sub(a layerStats) layerStats {
	d := b
	d.Chunk.Hits -= a.Chunk.Hits
	d.Chunk.Misses -= a.Chunk.Misses
	d.Chunk.Evictions -= a.Chunk.Evictions
	d.Meta.Hits -= a.Meta.Hits
	d.Meta.Misses -= a.Meta.Misses
	d.Meta.Evictions -= a.Meta.Evictions
	d.Decoded.Hits -= a.Decoded.Hits
	d.Decoded.Misses -= a.Decoded.Misses
	d.Decoded.Evictions -= a.Decoded.Evictions
	d.Elevator.Enqueued -= a.Elevator.Enqueued
	d.Elevator.Decoded -= a.Elevator.Decoded
	d.Elevator.Coalesced -= a.Elevator.Coalesced
	d.Elevator.Dropped -= a.Elevator.Dropped
	d.Elevator.Abandoned -= a.Elevator.Abandoned
	d.PlanHits -= a.PlanHits
	d.PlanMiss -= a.PlanMiss
	d.ResHits -= a.ResHits
	d.ResMiss -= a.ResMiss
	d.ResWaits -= a.ResWaits
	d.IO.ReadOps -= a.IO.ReadOps
	d.IO.BytesRead -= a.IO.BytesRead
	d.IO.WriteOps -= a.IO.WriteOps
	return d
}

// ratio is hits/(hits+misses), 0 when nothing was looked up.
func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}
