// Command hivebench is the repository benchmark. It runs one of three
// seeded workloads against the public hive API from a single process,
// checks every answer, and prints its metrics as one JSON object on the
// last line of standard output:
//
//	bi_serving  open-loop dashboard traffic (paper §4.3): parse,
//	            parameterize, plan-cache bind, result cache, admission.
//	etl_report  closed-loop batch passes over the TPC-DS-derived queries
//	            (paper §7) with a working set larger than every cache.
//	acid_mixed  a writer and a reader on one transactional table
//	            (paper §3), with compaction kept up by the writer.
//
// With --trace 0 it reports end-to-end metrics. With --trace 1 it traces
// every other slice of the window, timing calls into each layer's public
// functions, reads counter deltas from each layer's Stats, and reports
// per-layer metrics plus the tracing overhead against the untraced
// slices.
// --report paper instead reruns Figure 7, Table 1 and Figure 8 through
// internal/bench in the same output schema; it is informational and
// has no bounds.
//
// Build and run it through run.sh from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	hive "repro"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
	report   string
}

// benchEnv is one set-up warehouse ready to be measured.
type benchEnv interface {
	// warm is the last step of set-up: it lets lazy set-up and caches
	// settle before anything is timed.
	warm() error
	// run measures the workload for about d and checks its answers.
	run(d time.Duration, x *executor) (*window, error)
	warehouse() *hive.Warehouse
	// describe gives the sizes and rates the provenance block records.
	describe() map[string]any
	close()
}

// workload is how a run sets one workload up. setup_s is the median over
// its set-ups, each a warehouse open, load and ANALYZE followed by a
// warm-up. The last set-up before the window is the one measured; those
// after it are timed and closed again. Set-ups on both sides of the
// window spread over the whole run, so a few seconds of interference on
// a shared host move one or two of them, not their median.
type workload struct {
	open          func(*options) (benchEnv, error)
	before, after int
	// warmLast warms only the measured set-up and adds its warm-up to the
	// median open: a warm-up pass of etl_report takes longer than three
	// of its loads together.
	warmLast bool
}

var workloads = map[string]workload{
	"bi_serving": {open: openBI, before: 3, after: 3},
	"etl_report": {open: openETL, before: 2, after: 2, warmLast: true},
	"acid_mixed": {open: openACID, before: 3, after: 3},
}

// watchdogAfter bounds a whole run; a healthy run of the slowest workload
// ends in about a minute and a half.
const watchdogAfter = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output, the one the runs are judged by.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "bi_serving | etl_report | acid_mixed")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 20, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build/hivebench-out", "directory for traces and full reports")
	flag.StringVar(&o.report, "report", "", "paper = rerun Figure 7, Table 1 and Figure 8 (informational)")
	flag.Parse()
	o.trace = trace == 1
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fail(err)
	}
	if o.report == "paper" {
		fail(runPaperReport(&o))
		return
	}
	wl, ok := workloads[o.workload]
	if !ok || o.seconds < 1 {
		fail(fmt.Errorf("unknown workload %q or bad --seconds", o.workload))
	}
	// A query that never returns would hang the run until whoever waits
	// for it gives up; fail it with every goroutine's stack instead.
	watchdog := time.AfterFunc(watchdogAfter, func() {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		fmt.Fprintf(os.Stderr, "hivebench: still running after %v; goroutines:\n%s\n", watchdogAfter, buf[:n])
		os.Exit(3)
	})
	defer watchdog.Stop()
	fail(runWorkload(&o, wl))
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "hivebench:", err)
		os.Exit(1)
	}
}

// setUp opens a warehouse and, with warm, warms it up. It returns the
// seconds each step took.
func setUp(o *options, wl workload, warm bool) (env benchEnv, opened, warmed float64, err error) {
	runtime.GC() // the previous warehouse's garbage is not this one's cost
	t0 := time.Now()
	if env, err = wl.open(o); err != nil {
		return nil, 0, 0, fmt.Errorf("set-up: %w", err)
	}
	opened = time.Since(t0).Seconds()
	if warm {
		t1 := time.Now()
		if err = env.warm(); err != nil {
			env.close()
			return nil, 0, 0, fmt.Errorf("warm-up: %w", err)
		}
		warmed = time.Since(t1).Seconds()
	}
	return env, opened, warmed, nil
}

func runWorkload(o *options, wl workload) error {
	before, after := wl.before, wl.after
	if o.trace {
		before, after = 1, 0 // a traced run reports no setup_s
	}
	var env benchEnv
	defer func() {
		if env != nil {
			env.close()
		}
	}()
	var setups, opens []float64
	var warm float64 // the measured set-up's warm-up
	timeSetUp := func(measured bool) (benchEnv, error) {
		e, opened, warmed, err := setUp(o, wl, measured || !wl.warmLast)
		if err != nil {
			return nil, err
		}
		opens = append(opens, opened)
		if measured {
			warm = warmed
		}
		if wl.warmLast {
			setups = append(setups, opened)
		} else {
			setups = append(setups, opened+warmed)
		}
		return e, nil
	}
	for i := 0; i < before; i++ {
		if env != nil {
			env.close()
			env = nil
		}
		var err error
		if env, err = timeSetUp(i == before-1); err != nil {
			return err
		}
	}
	x := &executor{srv: env.warehouse().Server()}
	if o.trace {
		x.tr = newTracer()
	}
	rep := map[string]any{
		"schema":     "hivebench/1",
		"workload":   o.workload,
		"trace":      o.trace,
		"provenance": provenance(o, env),
	}
	w, err := env.run(time.Duration(o.seconds)*time.Second, x)
	if err != nil {
		return err
	}
	var metrics map[string]metric
	if !o.trace {
		e2e := endToEnd(w)
		e2e["retained_heap_mb"] = metric{float64(retainedHeap()) / (1 << 20), "MB"}
		env.close()
		env = nil
		for i := 0; i < after; i++ {
			e, err := timeSetUp(false)
			if err != nil {
				return err
			}
			e.close()
		}
		setup := median(setups)
		if wl.warmLast {
			setup += warm
		}
		e2e["setup_s"] = metric{setup, "s"}
		rep["end_to_end"] = e2e
		metrics = pick(e2e, endToEndNames)
	} else {
		layers := perLayer(w, x.tr)
		miss, err := chunkMissMetrics()
		if err != nil {
			return err
		}
		for k, v := range miss {
			layers[k] = v
		}
		rep["untraced_slices"], rep["traced_slices"] = byParity(w, 0), byParity(w, 1)
		rep["per_layer"] = layers
		metrics = layers
		path := filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.jsonl", o.workload, o.seed))
		if err := x.tr.write(path); err != nil {
			return err
		}
		rep["trace_file"] = path
	}
	rep["setup_runs_s"], rep["open_s"], rep["warm_s"] = setups, opens, warm
	if w.Attempted == 0 {
		return fmt.Errorf("no operation completed in the window")
	}
	res := result{Correct: w.Wrong == 0, Attempted: w.Attempted, Failed: w.Failed + w.Wrong, Metrics: metrics}
	rep["attempted"], rep["failed"], rep["wrong"] = w.Attempted, w.Failed, w.Wrong
	rep["fail_frac"] = float64(w.Failed+w.Wrong) / float64(w.Attempted)
	rep["wrong_statements"] = w.WrongWhat
	rep["class_p50_ms"] = w.classMedians()
	return emit(o, rep, res)
}

// emit writes the full report to the output directory and standard
// output, then the judged result as the last line.
func emit(o *options, rep map[string]any, res result) error {
	full, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	name := fmt.Sprintf("report-%s-seed%d-trace%v.json", o.workload, o.seed, o.trace)
	if o.report != "" {
		name = "report-" + o.report + ".json"
	}
	if err := os.WriteFile(filepath.Join(o.out, name), full, 0o644); err != nil {
		return err
	}
	last, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", full, last)
	return nil
}

// endToEndNames are the gated metrics, the ones every workload reports
// and none reports as 0. The rest of endToEnd's output goes to the full
// report: write figures apply to acid_mixed only, fail_frac is 0 on a
// healthy run (failed/attempted on the last line carry it), and the tail
// percentiles moved by 15-50% between runs of the same code on a shared
// 2-CPU host, more than any usable bound.
var endToEndNames = []string{"setup_s", "qps", "read_p50_ms", "cpu_ms_per_op", "alloc_kb_per_op", "retained_heap_mb"}

func pick(all map[string]metric, names []string) map[string]metric {
	out := map[string]metric{}
	for _, n := range names {
		if m, ok := all[n]; ok {
			out[n] = m
		}
	}
	return out
}

// endToEnd computes the user-visible metrics of a window: throughput and
// latency as the median over its slices of each slice's figure, CPU and
// allocation per operation over the whole window. Whole-window
// percentiles, write figures and sample counts go to the full report.
func endToEnd(w *window) map[string]metric {
	slices := w.slices()
	per := map[string][]float64{}
	for _, sl := range slices {
		ops := float64(len(sl.reads) + len(sl.writes))
		if ops == 0 {
			continue
		}
		per["qps"] = append(per["qps"], ops/(sl.to.At-sl.from.At).Seconds())
		if v, ok := percentile(sl.reads, 50); ok {
			per["read_p50_ms"] = append(per["read_p50_ms"], msOf(v))
		}
		for _, p := range []float64{90, 95} {
			if v, ok := percentile(sl.reads, p); ok {
				k := fmt.Sprintf("read_p%d_ms", int(p))
				per[k] = append(per[k], msOf(v))
			}
		}
	}
	units := map[string]string{"qps": "1/s", "read_p50_ms": "ms", "read_p90_ms": "ms", "read_p95_ms": "ms"}
	m := map[string]metric{
		"fail_frac":     {float64(w.Failed+w.Wrong) / float64(max(1, w.Attempted)), "frac"},
		"read_samples":  {float64(len(w.Reads)), "count"},
		"write_samples": {float64(len(w.Writes)), "count"},
		"slices":        {float64(len(slices)), "count"},
	}
	for k, vs := range per {
		m[k] = metric{median(vs), units[k]}
	}
	for k, v := range windowRates(w) {
		m[k] = v
	}
	reads, writes := lats(w.Reads), lats(w.Writes)
	if pct := tailPercentile(len(reads)); pct > 0 {
		v, _ := percentile(reads, pct)
		m["read_tail_ms"], m["read_tail_pct"] = metric{msOf(v), "ms"}, metric{pct, "%"}
	}
	for _, p := range []struct {
		name string
		ds   []time.Duration
		pct  float64
	}{
		{"window_read_p50_ms", reads, 50}, {"read_p99_ms", reads, 99},
		{"write_p50_ms", writes, 50}, {"write_p99_ms", writes, 99},
	} {
		if v, ok := percentile(p.ds, p.pct); ok {
			m[p.name] = metric{msOf(v), "ms"}
		}
	}
	if len(w.Writes) > 0 {
		m["writes_per_s"] = metric{float64(len(w.Writes)) / w.Elapsed.Seconds(), "1/s"}
	}
	return m
}

// windowRates is CPU time and allocation per operation over the whole
// window. They are costs, which a short burst of interference on the
// host barely moves, and a slice of bi_serving holds too few result-cache misses, the
// operations that cost the most, for its median to be steady: between
// runs of the same code the slice medians spread twice as far.
func windowRates(w *window) map[string]metric {
	ops := float64(max(1, len(w.Reads)+len(w.Writes)))
	first, last := w.Marks[0], w.Marks[len(w.Marks)-1]
	return map[string]metric{
		"cpu_ms_per_op":   {msOf(last.CPU-first.CPU) / ops, "ms"},
		"alloc_kb_per_op": {float64(last.Alloc-first.Alloc) / 1024 / ops, "KiB"},
	}
}

func provenance(o *options, env benchEnv) map[string]any {
	p := map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": goVersion(),
		"commit":     commit(),
		"seed":       o.seed,
		"seconds":    o.seconds,
	}
	for k, v := range env.describe() {
		p[k] = v
	}
	srv := env.warehouse().Server()
	if files, err := srv.FS.ListRecursive(srv.MS.Root()); err == nil {
		var bytes int64
		for _, f := range files {
			bytes += f.Size
		}
		p["warehouse_files"], p["warehouse_bytes"] = len(files), bytes
	}
	return p
}

func goVersion() string { return runtime.Version() }

// commit is the VCS revision the binary was built from, when the build
// saw one.
func commit() string {
	c := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				c = s.Value
			}
			if s.Key == "vcs.modified" && s.Value == "true" {
				c += "+modified"
			}
		}
	}
	return c
}
