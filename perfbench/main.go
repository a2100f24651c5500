// Command perfbench is the repository benchmark. It drives the public
// packages of the module — aw, internal/serve, internal/wfdsl,
// internal/core, internal/opt, internal/exec/scan and the engines —
// from outside, on inputs made by internal/gen from a seed, and checks
// every answer against an oracle.
//
// Usage, from the root of the repository:
//
//	bash perfbench/run.sh --qps 2 --workload batch --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end metrics; with --trace 1 they are the per-layer
// metrics of a separate traced run. README.md describes the workloads
// and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	name, unit string
}

// endToEnd are the metrics every untraced run reports, on every
// workload. README.md gives each one's meaning per workload.
var endToEnd = []metricSpec{
	{"lat_p50_ms", "ms"},
	{"sat_qps", "1/s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer lists every metric a traced run reports: the latency tail,
// the batch ops' layers prefixed with the op, then the serve
// workloads' layers, then the tracing overhead and the self-time
// reconciliation. A traced run reports 0 for the layers its workload
// does not exercise. The tail is not an end-to-end metric: its
// run-to-run spread exceeds any bound the benchmark may set (README.md).
func perLayer() []metricSpec {
	out := []metricSpec{{"lat_tail_ms", "ms"}}
	for _, op := range batchOps {
		for _, m := range op.layers() {
			out = append(out, metricSpec{op.name + "." + m.name, m.unit})
		}
	}
	out = append(out, serveLayers...)
	return append(out, traceLayers...)
}

var traceLayers = []metricSpec{
	{"trace.overhead_ratio", "ratio"},
	{"trace.self_sum_ratio", "ratio"},
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string
	work     string
	qps      float64
	// scale multiplies every input size; the self-tests run at a tiny
	// scale.
	scale float64
}

// outcome is what a workload run hands back for printing.
type outcome struct {
	attempted, failed int
	correct           bool
	metrics           map[string]float64
	info              map[string]any
}

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	var trace int
	fs.StringVar(&c.workload, "workload", "", "batch or serve-cold")
	fs.Int64Var(&c.seed, "seed", 1, "seed for every generated input")
	fs.Float64Var(&c.seconds, "seconds", 20, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	fs.StringVar(&c.root, "root", ".", "root of the repository checkout")
	fs.Float64Var(&c.qps, "qps", 0, "serve-cold open-loop arrival rate (requests/s)")
	fs.Float64Var(&c.scale, "scale", 1, "input-size multiplier")
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	c.trace = trace == 1
	switch {
	case trace != 0 && trace != 1:
		return c, fmt.Errorf("--trace must be 0 or 1")
	case c.seconds <= 0:
		return c, fmt.Errorf("--seconds must be positive")
	case c.scale <= 0 || c.scale > 1:
		return c, fmt.Errorf("--scale must be in (0, 1]")
	case c.workload == "serve-cold" && c.qps <= 0:
		return c, fmt.Errorf("serve-cold needs its arrival rate (--qps)")
	}
	return c, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	out := filepath.Join(cfg.root, ".bench_build", "perfbench")
	cfg.work = filepath.Join(out, fmt.Sprintf("work-%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.work)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var o *outcome
	total0, steal0 := cpuTicks()
	switch cfg.workload {
	case "batch":
		o, err = runBatch(cfg, tr)
	case "serve-cold":
		o, err = runServe(cfg, tr)
	default:
		err = fmt.Errorf("unknown workload %q (want batch or serve-cold)", cfg.workload)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if total1, steal1 := cpuTicks(); total1 > total0 {
		o.info["host_steal_share"] = (steal1 - steal0) / (total1 - total0)
	}
	if tr != nil {
		path := filepath.Join(out, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintln(stderr, "perfbench: write trace:", err)
			return 1
		}
		o.info["trace_file"] = path
	}

	specs := endToEnd
	if cfg.trace {
		specs = perLayer()
	}
	res := result{Correct: o.correct, Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]metric, len(specs))}
	for _, m := range specs {
		res.Metrics[m.name] = metric{Value: finite(o.metrics[m.name]), Unit: m.unit}
	}
	if !cfg.trace {
		for _, m := range endToEnd {
			if o.metrics[m.name] <= 0 {
				fmt.Fprintf(stderr, "perfbench: end-to-end metric %s is %v\n", m.name, o.metrics[m.name])
				return 1
			}
		}
	}
	o.info["env"] = environment(cfg)
	infoLine, err := json.Marshal(map[string]any{"info": o.info})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", infoLine, resLine)
	if !o.correct {
		fmt.Fprintln(stderr, "perfbench: outputs did not match the oracle")
		return 1
	}
	return 0
}

// environment records the host and the run's settings beside every
// result.
func environment(cfg config) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"num_cpu":    numCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"scale":      cfg.scale,
		"qps":        cfg.qps,
	}
}

// medianOf takes the median of each named sample list.
func medianOf(samples map[string][]float64) map[string]float64 {
	out := make(map[string]float64, len(samples))
	for k, v := range samples {
		out[k] = median(v)
	}
	return out
}
