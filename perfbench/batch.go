package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"awra/aw"
	"awra/internal/bench"
	"awra/internal/core"
	"awra/internal/exec/scan"
	"awra/internal/gen"
	"awra/internal/model"
	"awra/internal/obs"
	"awra/internal/opt"
	"awra/internal/plan"
	"awra/internal/storage"
)

// batchRecords is the synthetic cube's size: the paper's 1M point. It
// fits in one 256 MB sort run and in the page cache.
const batchRecords = 1_000_000

// setupRepeats is how many times a run sets its workload up; setup_s
// is the median.
const setupRepeats = 5

// batchOp is one of the four paper-query runs of a batch round.
type batchOp struct {
	name   string
	query  string // "q1" or "q2"
	engine aw.Engine
}

// batchOps run in this order, one after another, every round. Q1
// against Q2 separates large-output from small-output
// materialization; shardscan against sortscan separates split and
// combine from serial work; singlescan is the sort-free baseline.
var batchOps = []batchOp{
	{"q1_sortscan", "q1", aw.EngineSortScan},
	{"q2_sortscan", "q2", aw.EngineSortScan},
	{"q1_shardscan", "q1", aw.EngineShardScan},
	{"q1_singlescan", "q1", aw.EngineSingleScan},
}

// shardKey is Q1's shard key for the shardscan op. Under the
// optimizer's key Q1 does not shard; <A1:L2, A2:L0> does.
var shardKey = aw.SortKey{{Dim: 0, Lvl: 2}, {Dim: 1, Lvl: 0}}

// layers lists the per-layer metrics a traced run reports for the op.
func (op batchOp) layers() []metricSpec {
	out := []metricSpec{
		{"wall_ms", "ms"},
		{"alloc_mb", "MB"},
		{"runtime.gc_cpu_share", "share"},
		{"core.result_cells", "count"},
		{"cellmap.grows", "count"},
		{"aw.topk_ms", "ms"},
		{"scan.read_ms", "ms"},
	}
	switch op.engine {
	case aw.EngineSortScan:
		out = append(out,
			metricSpec{"opt.choose_ms", "ms"},
			metricSpec{"scan.sort_ms", "ms"},
			metricSpec{"scan.sort_alloc_mb", "MB"},
			metricSpec{"scan.sort_runs", "count"},
			metricSpec{"sortscan.scan_ms", "ms"},
			metricSpec{"sortscan.finalize_ms", "ms"},
			metricSpec{"sortscan.live_cells_hwm", "count"})
	case aw.EngineShardScan:
		out = append(out,
			metricSpec{"shard.split_ms", "ms"},
			metricSpec{"shard.worker_ms_max", "ms"},
			metricSpec{"shard.skew_ratio", "ratio"},
			metricSpec{"shard.combine_ms", "ms"})
	case aw.EngineSingleScan:
		out = append(out,
			metricSpec{"singlescan.scan_ms", "ms"},
			metricSpec{"singlescan.spill_bytes", "bytes"})
	}
	return out
}

// batchRun holds one batch run's inputs.
type batchRun struct {
	cfg     config
	tr      *tracer
	cube    string
	schema  *model.Schema
	queries map[string]*aw.Compiled
}

// opRun is one executed op.
type opRun struct {
	wall    time.Duration
	digests map[string]digest
	root    int // trace span, 0 when untraced
	layers  map[string]float64
	err     error
}

func runBatch(cfg config, tr *tracer) (*outcome, error) {
	b := &batchRun{cfg: cfg, tr: tr, cube: filepath.Join(cfg.work, "cube.rec")}
	n := int64(float64(batchRecords) * cfg.scale)
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if err := b.setup(n); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	fi, err := os.Stat(b.cube)
	if err != nil {
		return nil, err
	}

	// The measured window: whole rounds while another half round still
	// fits in the window, so the round count does not flip on small
	// changes in speed. A traced run alternates untraced and traced
	// rounds, so it needs two.
	var (
		rounds   []float64
		runs     = make(map[string][]opRun)
		window   = time.Duration(cfg.seconds * float64(time.Second))
		start    = time.Now()
		last     time.Duration
		attempts int
	)
	for r := 0; r == 0 || time.Since(start)+last/2 < window || (cfg.trace && r < 2); r++ {
		var rtr *tracer
		if cfg.trace && r%2 == 1 {
			rtr = tr
		}
		var round time.Duration
		for _, op := range batchOps {
			// Each op starts from a collected heap, so one op's garbage
			// neither slows the next nor sets the run's peak RSS.
			runtime.GC()
			or := b.runOp(op, r, rtr)
			attempts++
			round += or.wall
			runs[op.name] = append(runs[op.name], or)
		}
		if rtr == nil {
			rounds = append(rounds, float64(round)/float64(time.Millisecond))
		}
		last = round
	}
	elapsed := time.Since(start)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}

	// Checks, outside the measured window: every op's tables equal the
	// first run of its query bit for bit, and that run's final measure
	// equals the in-memory algebra evaluator's.
	failed := 0
	ref := map[string]map[string]digest{}
	for _, op := range batchOps {
		for _, or := range runs[op.name] {
			if or.err == nil && ref[op.query] == nil {
				ref[op.query] = or.digests
			}
		}
	}
	oracle, err := b.oracle()
	if err != nil {
		return nil, err
	}
	mismatches := 0
	for q, d := range oracle {
		if ref[q] == nil || ref[q][q] != d {
			mismatches++
			ref[q] = nil
		}
	}
	opInfo := map[string]any{}
	for _, op := range batchOps {
		var walls []float64
		for _, or := range runs[op.name] {
			switch {
			case or.err != nil:
				failed++
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", op.name, or.err)
			case ref[op.query] == nil || !sameDigests(or.digests, ref[op.query]):
				failed++
				mismatches++
			}
			if or.root == 0 {
				walls = append(walls, float64(or.wall)/float64(time.Millisecond))
			}
		}
		opInfo[op.name] = map[string]any{"median_ms": median(walls), "samples": len(walls)}
	}

	o := &outcome{
		attempted: attempts,
		failed:    failed,
		correct:   mismatches == 0,
		metrics:   map[string]float64{},
		info: map[string]any{
			"input": map[string]any{"records": n, "bytes": fi.Size(), "dims": 4, "fanout": 10},
			"ops":   opInfo,
		},
	}
	tl := tailOf(rounds)
	o.metrics["lat_p50_ms"] = median(rounds)
	o.metrics["lat_tail_ms"] = tl.Value
	o.metrics["sat_qps"] = float64(len(rounds)*len(batchOps)) / elapsed.Seconds()
	o.metrics["peak_rss_mb"] = rss
	o.metrics["setup_s"] = median(setups)
	o.info["rounds"] = len(rounds)
	o.info["lat_tail"] = tl
	o.info["setup_s"] = setups
	if tr != nil {
		b.traceMetrics(runs, o)
	}
	return o, nil
}

// setup writes the cube and compiles the two paper queries.
func (b *batchRun) setup(n int64) error {
	s, err := gen.Synth(b.cube, n, gen.SynthConfig{Seed: b.cfg.seed})
	if err != nil {
		return fmt.Errorf("generate cube: %w", err)
	}
	q1, err := bench.Q1Workflow(s, 7)
	if err != nil {
		return err
	}
	q2, err := bench.Q2Workflow(s, 7)
	if err != nil {
		return err
	}
	b.schema, b.queries = s, map[string]*aw.Compiled{"q1": q1, "q2": q2}
	return nil
}

// runOp runs one op. With a tracer it also records the op's spans, the
// engine's own spans and counters, and the layer probes.
func (b *batchRun) runOp(op batchOp, round int, tr *tracer) opRun {
	c := b.queries[op.query]
	req := fmt.Sprintf("%s-r%d", op.name, round)
	o := aw.QueryOptions{ExecOptions: aw.ExecOptions{Engine: op.engine, Parallelism: 1}, TempDir: b.cfg.work}
	if op.engine == aw.EngineShardScan {
		o.Parallelism = runtime.NumCPU()
		o.SortKey = shardKey
	}
	var (
		root = tr.start(op.name, 0, req)
		rec  *obs.Recorder
		t0   = time.Now()
	)
	if tr != nil {
		rec = obs.New()
		o.Recorder = rec
		if op.engine == aw.EngineSortScan {
			sp := tr.start("opt.choose", root, req)
			ch, err := opt.Best(c, &plan.Stats{})
			tr.end(sp)
			if err != nil {
				return opRun{err: err}
			}
			o.SortKey = ch.Key
		}
	}
	rt0 := readRuntime()
	runSpan := tr.start("aw.run", root, req)
	res, err := aw.RunCompiled(context.Background(), c, aw.FromFile(b.cube), o)
	tr.end(runSpan)
	rt1 := readRuntime()
	tr.end(root)
	or := opRun{wall: time.Since(t0), root: root, err: err}
	if err != nil {
		return or
	}
	or.digests = resultDigests(res)
	if tr == nil {
		return or
	}

	snap := rec.Snapshot()
	tr.importEngine(runSpan, req, snap.Spans)
	or.layers = map[string]float64{
		"alloc_mb":             allocMB(rt0, rt1),
		"runtime.gc_cpu_share": gcShare(rt0, rt1),
		"core.result_cells":    float64(resultCells(res)),
		"cellmap.grows":        float64(snap.Counters[obs.MCellTableGrows]),
	}
	sp := tr.start("aw.topk", 0, req)
	for _, t := range res {
		aw.TopK(t, 50)
	}
	tr.end(sp)
	or.layers["aw.topk_ms"] = tr.durationMs(sp)
	res = nil
	if or.layers["scan.read_ms"], err = readProbe(tr, req, b.cube); err != nil {
		return opRun{err: err}
	}
	switch op.engine {
	case aw.EngineSortScan:
		or.layers["scan.sort_runs"] = float64(snap.Counters[obs.MSortRuns])
		or.layers["sortscan.live_cells_hwm"] = float64(snap.Gauges[obs.GLiveCellsHWM])
		if or.layers["scan.sort_alloc_mb"], err = sortProbe(tr, req, b.cube, b.cfg.work, b.schema, o.SortKey); err != nil {
			return opRun{err: err}
		}
	case aw.EngineShardScan:
		or.layers["shard.skew_ratio"] = float64(snap.Gauges[obs.GShardSkew]) / 1000
	case aw.EngineSingleScan:
		or.layers["singlescan.spill_bytes"] = float64(snap.Counters[obs.MSpillBytes])
	}
	return or
}

// engineSpanMetrics maps engine span names to an op's layer metrics:
// each metric is the summed (or, for shard workers, the longest)
// duration of the named spans under the op.
var engineSpanMetrics = map[aw.Engine]map[string]string{
	aw.EngineSortScan: {
		"opt.choose": "opt.choose_ms", obs.SpanSort: "scan.sort_ms",
		obs.SpanScan: "sortscan.scan_ms", obs.SpanFinalize: "sortscan.finalize_ms",
	},
	aw.EngineShardScan: {
		obs.SpanSplit: "shard.split_ms", obs.SpanShard: "shard.worker_ms_max", obs.SpanCombine: "shard.combine_ms",
	},
	aw.EngineSingleScan: {obs.SpanScan: "singlescan.scan_ms"},
}

// traceMetrics fills the traced run's per-layer metrics: the median
// over traced rounds of each op's layers, the tracing overhead and the
// self-time reconciliation.
func (b *batchRun) traceMetrics(runs map[string][]opRun, o *outcome) {
	var roots []int
	var traced, untraced float64
	for _, op := range batchOps {
		samples := map[string][]float64{}
		var plain []float64
		for _, or := range runs[op.name] {
			if or.err != nil {
				continue
			}
			if or.root == 0 {
				plain = append(plain, float64(or.wall)/float64(time.Millisecond))
				continue
			}
			roots = append(roots, or.root)
			samples["wall_ms"] = append(samples["wall_ms"], float64(or.wall)/float64(time.Millisecond))
			for k, v := range or.layers {
				samples[k] = append(samples[k], v)
			}
			for name, durs := range b.tr.layerDurationsMs(or.root) {
				m, ok := engineSpanMetrics[op.engine][name]
				if !ok {
					continue
				}
				v := 0.0
				for _, d := range durs {
					if m == "shard.worker_ms_max" {
						v = max(v, d)
					} else {
						v += d
					}
				}
				samples[m] = append(samples[m], v)
			}
		}
		traced += median(samples["wall_ms"])
		untraced += median(plain)
		for k, v := range medianOf(samples) {
			o.metrics[op.name+"."+k] = v
		}
	}
	if untraced > 0 {
		o.metrics["trace.overhead_ratio"] = traced / untraced
	}
	o.metrics["trace.self_sum_ratio"] = b.tr.selfSumRatio(roots)
}

// oracle evaluates each query's final measure with the in-memory
// algebra evaluator.
func (b *batchRun) oracle() (map[string]digest, error) {
	recs, _, err := storage.ReadAll(b.cube)
	if err != nil {
		return nil, err
	}
	out := map[string]digest{}
	for name, c := range b.queries {
		e, err := core.Translate(c, name)
		if err != nil {
			return nil, err
		}
		t, err := core.Eval(e, recs)
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", name, err)
		}
		out[name] = tableDigest(t)
	}
	return out, nil
}

// readProbe times a plain batched read of a record file: scan.Open and
// NextBatch to the end, with no aggregation.
func readProbe(tr *tracer, req, path string) (float64, error) {
	sp := tr.start("scan.read", 0, req)
	r, err := scan.Open(path, scan.Options{})
	if err != nil {
		return 0, err
	}
	defer r.Close()
	for {
		batch, err := r.NextBatch()
		if err != nil {
			return 0, err
		}
		if len(batch) == 0 {
			break
		}
	}
	tr.end(sp)
	return tr.durationMs(sp), nil
}

// sortProbe sorts the input by key with scan.SortFileByKey and returns
// the heap it allocated, in MB.
func sortProbe(tr *tracer, req, in, work string, s *model.Schema, key aw.SortKey) (float64, error) {
	nk, err := key.Normalize(s)
	if err != nil {
		return 0, err
	}
	out := filepath.Join(work, "probe-sorted.rec")
	defer os.Remove(out)
	sp := tr.start("scan.sort", 0, req)
	rt0 := readRuntime()
	_, err = scan.SortFileByKey(in, out, s, nk, scan.SortOptions{TempDir: work})
	rt1 := readRuntime()
	tr.end(sp)
	return allocMB(rt0, rt1), err
}
