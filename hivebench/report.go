package main

import (
	"fmt"
	"os"
	"time"

	hive "repro"
	"repro/internal/bench"
)

type paperRunner struct{ s *hive.Session }

func (r paperRunner) Exec(q string) error { _, err := r.s.Exec(q); return err }
func (r paperRunner) SetConf(k, v string) { r.s.SetConf(k, v) }

// paperFigure7AvgSpeedup is the paper's Figure 7 average v1.2→v3.1
// speedup over the queries both versions ran, read off the figure.
const paperFigure7AvgSpeedup = 4.6

// runPaperReport reruns the paper's Figure 7, Table 1 and Figure 8 once
// each through internal/bench, on the same data and configuration as
// cmd/hive-bench, and prints them in the benchmark's output schema. The
// figures carry no bounds: they put the distance from the paper on record.
func runPaperReport(o *options) error {
	m := map[string]metric{}
	start := time.Now()

	wh, err := hive.Open(hive.Config{DiskLatency: true})
	if err != nil {
		return err
	}
	s := wh.Session()
	if err := bench.SetupTPCDS(func(q string) error { _, err := s.Exec(q); return err }, bench.SmallTPCDS()); err != nil {
		wh.Close()
		return err
	}
	fmt.Fprintln(os.Stderr, "hivebench: Figure 7")
	f7, err := bench.Figure7(paperRunner{s}, bench.TPCDSQueries(), 1)
	if err != nil {
		wh.Close()
		return err
	}
	bench.PrintFigure7(os.Stderr, f7)
	var sum, v12, v31 float64
	var both int
	for _, t := range f7 {
		v31 += msOf(t.V31)
		if t.Supported {
			sum += float64(t.V12) / float64(t.V31)
			v12 += msOf(t.V12)
			both++
		}
	}
	m["fig7.avg_speedup"] = metric{sum / float64(max(1, both)), "x"}
	m["fig7.paper_avg_speedup"] = metric{paperFigure7AvgSpeedup, "x"}
	m["fig7.v12_supported_ms"] = metric{v12, "ms"}
	m["fig7.v31_all_ms"] = metric{v31, "ms"}
	m["fig7.queries_v12"] = metric{float64(both), "count"}
	m["fig7.queries"] = metric{float64(len(f7)), "count"}

	fmt.Fprintln(os.Stderr, "hivebench: Table 1")
	t1, err := bench.Table1(paperRunner{s}, bench.TPCDSQueries(), 1)
	wh.Close()
	if err != nil {
		return err
	}
	bench.PrintTable1(os.Stderr, t1)
	m["table1.container_ms"] = metric{msOf(t1.ContainerTotal), "ms"}
	m["table1.llap_ms"] = metric{msOf(t1.LLAPTotal), "ms"}
	m["table1.speedup"] = metric{float64(t1.ContainerTotal) / float64(t1.LLAPTotal), "x"}

	fmt.Fprintln(os.Stderr, "hivebench: Figure 8")
	wh, err = hive.Open(hive.Config{DiskLatency: true})
	if err != nil {
		return err
	}
	s = wh.Session()
	if err := bench.SetupSSB(func(q string) error { _, err := s.Exec(q); return err }, bench.SmallSSB()); err != nil {
		wh.Close()
		return err
	}
	f8, err := bench.RunFigure8(paperRunner{s}, 1)
	wh.Close()
	if err != nil {
		return err
	}
	bench.PrintFigure8(os.Stderr, f8)
	var native, druid float64
	for _, t := range f8 {
		native += msOf(t.Native)
		druid += msOf(t.Druid)
	}
	m["fig8.native_ms"] = metric{native, "ms"}
	m["fig8.druid_ms"] = metric{druid, "ms"}
	m["fig8.queries"] = metric{float64(len(f8)), "count"}

	ops := len(f7) + both + 2*len(bench.TPCDSQueries()) + 2*len(f8)
	rep := map[string]any{
		"schema": "hivebench/1",
		"report": o.report,
		"gated":  false,
		// The figures time queries; they do not check answers.
		"answers_checked": false,
		"metrics":         m,
		"provenance": map[string]any{
			"go_version": goVersion(), "commit": commit(), "elapsed_s": time.Since(start).Seconds(),
			"scale": bench.SmallTPCDS(), "disk_latency": true, "iterations": 1,
		},
	}
	return emit(o, rep, result{Correct: true, Attempted: ops, Metrics: m})
}
