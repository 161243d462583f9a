package main

import (
	"fmt"
	"time"

	hive "repro"
	"repro/internal/dfs"
	"repro/internal/llap"
)

// perLayer turns a traced window into per-layer metrics: mean self time
// per call of each timed layer (traced slices), ratios and per-operation
// rates from the layers' Stats deltas (the whole window), and the tracing
// overhead: the traced slices against the untraced ones beside them.
func perLayer(w *window, tr *tracer) map[string]metric {
	ops := float64(max(1, w.Attempted))
	self := selfTimes(tr.spans)
	meanUS := func(name string) float64 {
		lt := self[name]
		if lt.Count == 0 {
			return 0
		}
		return float64(lt.Self) / float64(time.Microsecond) / float64(lt.Count)
	}
	var reexec int
	var queued, queuedN int
	var stripes, spilled, peak, execN int64
	for _, r := range tr.records {
		reexec += r.Reexecutions
		if r.QueuedAtArrival != nil {
			queued += *r.QueuedAtArrival
			queuedN++
		}
		if r.StripesSkipped != nil {
			execN++
			stripes += *r.StripesSkipped
			spilled += *r.SpilledBytes
			peak = max(peak, *r.PeakMemBytes)
		}
	}
	perExec := func(v int64) float64 { return float64(v) / float64(max(1, execN)) }
	l := w.Layers
	lat := hive.DefaultLatency()
	modeled := time.Duration(l.IO.ReadOps)*lat.SeekCost + time.Duration(l.IO.BytesRead)*lat.PerByteCost
	var meanLag float64
	for _, d := range w.GenLag {
		meanLag += msOf(d) / float64(len(w.GenLag))
	}
	var compactMS float64
	if w.Acid.Compactions > 0 {
		compactMS = msOf(w.Acid.CompactTime) / float64(w.Acid.Compactions)
	}
	traced, untraced := byParity(w, 1), byParity(w, 0)
	over := func(k string) float64 { return traced[k].Value - untraced[k].Value }
	return map[string]metric{
		"sql.parse_us":                 {meanUS("sql.parse"), "us"},
		"sql.parameterize_us":          {meanUS("sql.parameterize"), "us"},
		"analyze.select_us":            {meanUS("analyze.select"), "us"},
		"opt.optimize_us":              {meanUS("opt.optimize"), "us"},
		"hs2.compile_us":               {meanUS("hs2.compile"), "us"},
		"hs2.execute_us":               {meanUS("hs2.execute"), "us"},
		"hs2.reexecutions":             {float64(reexec), "count"},
		"bench.op_self_us":             {meanUS("op"), "us"},
		"plancache.hit_ratio":          {ratio(l.PlanHits, l.PlanMiss), "frac"},
		"resultcache.hit_ratio":        {ratio(l.ResHits, l.ResMiss), "frac"},
		"resultcache.waits_per_op":     {float64(l.ResWaits) / ops, "count"},
		"wm.queued_at_arrival":         {float64(queued) / float64(max(1, queuedN)), "count"},
		"llap.chunk.hit_ratio":         {ratio(l.Chunk.Hits, l.Chunk.Misses), "frac"},
		"llap.chunk.evictions_per_op":  {float64(l.Chunk.Evictions) / ops, "count"},
		"llap.decoded.hit_ratio":       {ratio(l.Decoded.Hits, l.Decoded.Misses), "frac"},
		"llap.meta.hit_ratio":          {ratio(l.Meta.Hits, l.Meta.Misses), "frac"},
		"llap.elevator.decoded_per_op": {float64(l.Elevator.Decoded) / ops, "count"},
		"llap.elevator.dropped_per_op": {float64(l.Elevator.Dropped) / ops, "count"},
		"orc.stripes_skipped_per_op":   {perExec(stripes), "count"},
		"exec.peak_mem_kb":             {float64(peak) / 1024, "KiB"},
		"exec.spilled_kb_per_op":       {perExec(spilled) / 1024, "KiB"},
		"dfs.read_ops_per_op":          {float64(l.IO.ReadOps) / ops, "count"},
		"dfs.read_kb_per_op":           {float64(l.IO.BytesRead) / 1024 / ops, "KiB"},
		"dfs.write_ops_per_op":         {float64(l.IO.WriteOps) / ops, "count"},
		"dfs.modeled_wait_ms_per_op":   {msOf(modeled) / ops, "ms"},
		"acid.store_dirs_max":          {float64(w.Acid.StoreDirsMax), "count"},
		"acid.compact_ms":              {compactMS, "ms"},
		"acid.compactions":             {float64(w.Acid.Compactions), "count"},
		"driver.gen_lag_ms":            {meanLag, "ms"},
		"trace.overhead_cpu_ms_per_op": {over("cpu_ms_per_op"), "ms"},
		"trace.overhead_read_p50_ms":   {over("read_p50_ms"), "ms"},
		"trace.spans":                  {float64(len(tr.spans)), "count"},
	}
}

// chunkMissUS times llap.Cache.ReadChunk misses on a cache already full
// of 4 KiB chunks, so every timed miss also evicts: the cost of the LRFU
// victim scan at that capacity.
func chunkMissUS(capacity int64, misses int) (float64, error) {
	const chunk = 4 << 10
	fs := dfs.New()
	if err := fs.WriteFile("/chunks", make([]byte, chunk)); err != nil {
		return 0, err
	}
	c := llap.NewCache(fs, capacity)
	n := int(capacity / chunk)
	for i := 0; i < n; i++ {
		if _, err := c.ReadChunk("/chunks", 1, i, 0, 0, chunk); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	for i := 0; i < misses; i++ {
		if _, err := c.ReadChunk("/chunks", 1, n+i, 0, 0, chunk); err != nil {
			return 0, err
		}
	}
	if ev := c.Stats().Evictions; ev < int64(misses) {
		return 0, fmt.Errorf("chunk cache at %d bytes evicted %d times in %d misses", capacity, ev, misses)
	}
	return float64(time.Since(start)) / float64(time.Microsecond) / float64(misses), nil
}

// chunkMissMetrics measures the miss cost at etl_report's 1 MiB capacity
// and at the 64 MiB default the other workloads run with.
func chunkMissMetrics() (map[string]metric, error) {
	out := map[string]metric{}
	for _, c := range []struct {
		name     string
		capacity int64
		misses   int
	}{{"llap.chunk.miss_us.etl_cap", 1 << 20, 400}, {"llap.chunk.miss_us.default_cap", 64 << 20, 40}} {
		us, err := chunkMissUS(c.capacity, c.misses)
		if err != nil {
			return nil, err
		}
		out[c.name] = metric{us, "us"}
	}
	return out, nil
}

func (e *biEnv) describe() map[string]any {
	statements := 0
	for _, sh := range e.shapes {
		statements += len(sh.combos)
	}
	return map[string]any{
		"arrival_rate_per_s": biRate, "senders": len(e.senders),
		"chunk_cache_bytes": 64 << 20, "decoded_cache_bytes": 32 << 20,
		"metadata_cache_entries": llap.DefaultMetadataCapacity, "result_cache_entries": 256,
		"plan_cache_entries": 128, "statements": statements, "prepared_share": biPreparedShare,
		"wm_memory_bytes": 256 << 20, "disk_latency": false,
	}
}

func (e *etlEnv) describe() map[string]any {
	return map[string]any{
		"chunk_cache_bytes": etlCacheBytes, "decoded_cache_bytes": etlCacheBytes / 2,
		"metadata_cache_entries": llap.DefaultMetadataCapacity, "result_cache": false,
		"query_memory_budget_bytes": etlBudget, "queries": len(e.queries),
		"scale": etlScale(), "disk_latency": true, "passes_per_15s": etlPasses(15 * time.Second),
	}
}

func (e *acidEnv) describe() map[string]any {
	return map[string]any{
		"chunk_cache_bytes": 64 << 20, "decoded_cache_bytes": 32 << 20,
		"metadata_cache_entries": llap.DefaultMetadataCapacity, "result_cache_entries": 256,
		"live_orders": acidLive, "reads": len(e.reads), "check_every_writes": acidCheckEvery,
		"disk_latency": false,
	}
}
