package main

import (
	"context"
	"fmt"
	"time"

	"awra/aw"
	"awra/internal/obs"
	"awra/internal/opt"
	"awra/internal/plan"
	"awra/internal/serve"
	"awra/internal/wfdsl"
)

// serveLayers are the serve workloads' per-layer metrics.
var serveLayers = []metricSpec{
	{"opt.choose_ms", "ms"},
	{"scan.sort_ms", "ms"},
	{"scan.sort_alloc_mb", "MB"},
	{"scan.sort_runs", "count"},
	{"scan.read_ms", "ms"},
	{"sortscan.scan_ms", "ms"},
	{"sortscan.finalize_ms", "ms"},
	{"sortscan.live_cells_hwm", "count"},
	{"singlescan.scan_ms", "ms"},
	{"singlescan.spill_bytes", "bytes"},
	{"cellmap.grows", "count"},
	{"core.result_cells", "count"},
	{"wfdsl.parse_us", "us"},
	{"core.fingerprint_us", "us"},
	{"aw.topk_ms", "ms"},
	{"serve.duration_ms", "ms"},
	{"serve.post_ms", "ms"},
	{"serve.admission_wait_ms", "ms"},
	{"serve.cache_evictions", "count"},
	{"serve.response_kb", "KB"},
	{"alloc_mb", "MB"},
	{"runtime.gc_cpu_share", "share"},
	{"gen.late_ms", "ms"},
}

// traceMetrics fills a traced serve run's per-layer metrics. The
// serve.* metrics come from the traced open loop and the server's own
// counters; the engine, planner and parser layers come from probes that
// replay a sample of the run's workflows through the public calls the
// server makes, one call per span.
func (s *serveRun) traceMetrics(o *outcome, open []*request, rt0, rt1 runtimeSample, cache serve.CacheSnapshot, srv obs.Snapshot) error {
	var traced, untraced, dur, post, kb []float64
	for _, r := range open {
		if r.traced {
			traced = append(traced, r.latencyMs())
		} else {
			untraced = append(untraced, r.latencyMs())
		}
		if !r.ok() {
			continue
		}
		d := float64(r.resp.DurationUs) / 1000
		dur = append(dur, d)
		post = append(post, float64(r.done.Sub(r.sent))/float64(time.Millisecond)-d)
		kb = append(kb, float64(len(r.body))/1024)
	}
	m := o.metrics
	if u := median(untraced); u > 0 {
		m["trace.overhead_ratio"] = median(traced) / u
	}
	m["serve.duration_ms"] = median(dur)
	m["serve.post_ms"] = median(post)
	m["serve.response_kb"] = median(kb)
	if n := srv.Counters[obs.MServeAdmitted]; n > 0 {
		for _, h := range srv.Histograms {
			if h.Name == obs.HServeWaitUs {
				m["serve.admission_wait_ms"] += float64(h.Sum) / 1000 / float64(n)
			}
		}
	}
	m["serve.cache_evictions"] = float64(cache.Evictions)
	if len(open) > 0 {
		m["alloc_mb"] = allocMB(rt0, rt1) / float64(len(open))
	}
	m["runtime.gc_cpu_share"] = gcShare(rt0, rt1)

	var sample []string
	for _, r := range open[:min(len(open), probeSample)] {
		sample = append(sample, r.wf)
	}
	samples := map[string][]float64{}
	var roots []int
	for i, wf := range sample {
		layers, root, err := s.probe(wf, fmt.Sprintf("probe-%d", i))
		if err != nil {
			return err
		}
		roots = append(roots, root)
		for k, v := range layers {
			samples[k] = append(samples[k], v)
		}
	}
	for k, v := range medianOf(samples) {
		m[k] = v
	}
	m["trace.self_sum_ratio"] = s.tr.selfSumRatio(roots)
	return nil
}

// probeSpanMetrics maps engine span names to serve layer metrics, by
// the engine the auto decision picked.
var probeSpanMetrics = map[string]map[string]string{
	"sortscan": {
		obs.SpanSort: "scan.sort_ms", obs.SpanScan: "sortscan.scan_ms", obs.SpanFinalize: "sortscan.finalize_ms",
	},
	"singlescan": {obs.SpanScan: "singlescan.scan_ms"},
}

// probe runs one workflow through the server's request path one public
// call at a time against the collection: parse, fingerprint, the
// Section 6 decision, the engine run, and the top-K of every result
// table. It then sorts and reads the collection on their own to
// isolate the sort's allocation and the read cost.
func (s *serveRun) probe(wf, req string) (map[string]float64, int, error) {
	tr := s.tr
	path := s.coll
	out := map[string]float64{}
	root := tr.start("probe", 0, req)

	sp := tr.start("wfdsl.parse", root, req)
	parsed, err := wfdsl.Parse(wf)
	tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	out["wfdsl.parse_us"] = tr.durationMs(sp) * 1000

	sp = tr.start("core.fingerprint", root, req)
	parsed.Compiled.Fingerprint()
	tr.end(sp)
	out["core.fingerprint_us"] = tr.durationMs(sp) * 1000

	sp = tr.start("opt.choose", root, req)
	d, err := opt.Choose(parsed.Compiled, &plan.Stats{}, serveMemBudget)
	tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	out["opt.choose_ms"] = tr.durationMs(sp)

	rec := obs.New()
	runSpan := tr.start("aw.run", root, req)
	res, err := aw.RunCompiled(context.Background(), parsed.Compiled, aw.FromFile(path), aw.QueryOptions{
		ExecOptions: aw.ExecOptions{Engine: aw.EngineAuto, MemoryBudget: serveMemBudget, Parallelism: 1, Recorder: rec},
		TempDir:     s.cfg.work,
	})
	tr.end(runSpan)
	if err != nil {
		return nil, 0, err
	}
	snap := rec.Snapshot()
	tr.importEngine(runSpan, req, snap.Spans)

	sp = tr.start("aw.topk", root, req)
	for _, t := range res {
		aw.TopK(t, 50)
	}
	tr.end(sp)
	tr.end(root)
	out["aw.topk_ms"] = tr.durationMs(sp)
	out["core.result_cells"] = float64(resultCells(res))
	out["cellmap.grows"] = float64(snap.Counters[obs.MCellTableGrows])

	engine := ""
	for _, q := range snap.Spans {
		if q.Name == obs.SpanQuery {
			engine = q.Attrs["engine"]
		}
	}
	for name, durs := range tr.layerDurationsMs(runSpan) {
		if m, ok := probeSpanMetrics[engine][name]; ok {
			for _, v := range durs {
				out[m] += v
			}
		}
	}
	switch engine {
	case "sortscan":
		out["scan.sort_runs"] = float64(snap.Counters[obs.MSortRuns])
		out["sortscan.live_cells_hwm"] = float64(snap.Gauges[obs.GLiveCellsHWM])
		if out["scan.sort_alloc_mb"], err = sortProbe(tr, req, path, s.cfg.work, parsed.Schema, d.Key); err != nil {
			return nil, 0, err
		}
	case "singlescan":
		out["singlescan.spill_bytes"] = float64(snap.Counters[obs.MSpillBytes])
	}
	if out["scan.read_ms"], err = readProbe(tr, req, path); err != nil {
		return nil, 0, err
	}
	return out, root, nil
}
