package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// windowSlices is how many slices the time-bounded windows are cut into.
const windowSlices = 8

// sample is one operation's latency and when it completed, measured from
// the start of its window.
type sample struct {
	At  time.Duration
	Lat time.Duration
}

// mark reads the process's CPU time and allocation at a slice boundary.
type mark struct {
	At    time.Duration
	CPU   time.Duration
	Alloc uint64
}

// window is what one measured stretch of a workload produced. Marks cut
// it into slices; the end-to-end metrics are medians over the slices, so
// a burst of interference on the shared host moves one slice, not the
// figure.
type window struct {
	Elapsed   time.Duration
	Reads     []sample
	Writes    []sample
	Attempted int
	Failed    int      // errors, refusals and timeouts
	Wrong     int      // answers the oracle rejected
	WrongWhat []string // which statements they were, for the report
	GenLag    []time.Duration
	ByClass   map[string][]time.Duration // latencies per statement class, for the report
	Marks     []mark                     // the first at 0, the last at Elapsed
	Layers    layerStats
	Acid      acidStats
}

func (w *window) addClass(class string, lat time.Duration) {
	if w.ByClass == nil {
		w.ByClass = map[string][]time.Duration{}
	}
	w.ByClass[class] = append(w.ByClass[class], lat)
}

// classMedians is the median latency of each statement class in ms.
func (w *window) classMedians() map[string]float64 {
	out := map[string]float64{}
	for c, ds := range w.ByClass {
		v, _ := percentile(ds, 50)
		out[c] = msOf(v)
	}
	return out
}

// slice is the operations of a window between two marks.
type slice struct {
	reads, writes []time.Duration
	from, to      mark
}

// slices cuts the window at its marks; an operation belongs to the slice
// in which it completed.
func (w *window) slices() []slice {
	out := make([]slice, len(w.Marks)-1)
	for i := range out {
		out[i].from, out[i].to = w.Marks[i], w.Marks[i+1]
	}
	place := func(ss []sample, write bool) {
		for _, s := range ss {
			i := sort.Search(len(out), func(i int) bool { return s.At < out[i].to.At })
			i = min(i, len(out)-1)
			if write {
				out[i].writes = append(out[i].writes, s.Lat)
			} else {
				out[i].reads = append(out[i].reads, s.Lat)
			}
		}
	}
	place(w.Reads, false)
	place(w.Writes, true)
	return out
}

// byParity pools the even (parity 0) or odd (1) slices of a window: the
// untraced and the traced ones of a traced run. It gives their operation
// count, CPU per operation and median read latency.
func byParity(w *window, parity int) map[string]metric {
	var ops int
	var cpu time.Duration
	var reads []time.Duration
	for i, sl := range w.slices() {
		if i%2 != parity {
			continue
		}
		ops += len(sl.reads) + len(sl.writes)
		cpu += sl.to.CPU - sl.from.CPU
		reads = append(reads, sl.reads...)
	}
	p50, _ := percentile(reads, 50)
	return map[string]metric{
		"ops":           {float64(ops), "count"},
		"cpu_ms_per_op": {msOf(cpu) / float64(max(1, ops)), "ms"},
		"read_p50_ms":   {msOf(p50), "ms"},
	}
}

func lats(ss []sample) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = s.Lat
	}
	return out
}

// acidStats is the compactor-initiator bookkeeping of acid_mixed.
type acidStats struct {
	StoreDirsMax int
	Compactions  int
	CompactTime  time.Duration
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// retainedHeap is the heap in use after a full collection.
func retainedHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// minSamplesFor is the sample count a percentile needs: at least ten
// samples must lie beyond it (p99 needs 1000).
func minSamplesFor(p float64) int {
	return int(math.Ceil(10/(1-p/100) - 1e-9))
}

// percentile returns the p-th percentile (nearest rank) of ds, and false
// when ds has too few samples for at least ten to lie beyond it. The
// median is always reported for a non-empty sample.
func percentile(ds []time.Duration, p float64) (time.Duration, bool) {
	if len(ds) == 0 || (p > 50 && len(ds) < minSamplesFor(p)) {
		return 0, false
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(p/100*float64(len(s)))) - 1
	rank = max(0, min(rank, len(s)-1))
	return s[rank], true
}

// tailPercentile is the highest of p99, p95, p90 and p80 that has at
// least ten of n samples beyond it, or 0 when none has: the tail the
// full report gives next to the median (p80 on etl_report's 62 reads).
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 95, 90, 80} {
		if n >= minSamplesFor(p) {
			return p
		}
	}
	return 0
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// meter brackets the measured part of a window, so set-up and oracle
// work never count towards its CPU, allocation or layer counters, and
// marks the slice boundaries.
type meter struct {
	x      *executor
	start  time.Time
	layers layerStats
	mu     sync.Mutex
	marks  []mark
	stopc  chan struct{}
	done   chan struct{}
}

// startMeter starts a window of x's operations at start. With slices > 1
// a goroutine marks the boundaries of that many equal slices of d;
// otherwise the caller marks them (etl_report's passes) or the window is
// one slice. A tracing executor traces the odd slices only.
func startMeter(x *executor, start time.Time, slices int, d time.Duration) *meter {
	m := &meter{x: x, start: start, layers: readLayers(x.srv), stopc: make(chan struct{}), done: make(chan struct{})}
	m.marks = []mark{{At: 0, CPU: cpuTime(), Alloc: totalAlloc()}}
	x.off.Store(true)
	go func() {
		defer close(m.done)
		for i := 1; i < slices; i++ {
			t := time.NewTimer(time.Until(start.Add(d * time.Duration(i) / time.Duration(slices))))
			select {
			case <-t.C:
				m.mark()
			case <-m.stopc:
				t.Stop()
				return
			}
		}
	}()
	return m
}

// since is the offset of now into the window.
func (m *meter) since() time.Duration { return time.Since(m.start) }

func (m *meter) mark() {
	mk := mark{At: m.since(), CPU: cpuTime(), Alloc: totalAlloc()}
	m.mu.Lock()
	m.marks = append(m.marks, mk)
	m.x.off.Store(len(m.marks)%2 == 1)
	m.mu.Unlock()
}

// stop ends the window: it waits for the marking goroutine, marks the
// end, and fills the window's totals.
func (m *meter) stop(w *window) {
	close(m.stopc)
	<-m.done
	m.mark()
	w.Marks = m.marks
	w.Elapsed = w.Marks[len(w.Marks)-1].At
	w.Layers = readLayers(m.x.srv).sub(m.layers)
}
