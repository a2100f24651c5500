package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// repoRoot is the checkout root as seen from this package's directory.
const repoRoot = ".."

// higherIsBetter names the metrics that improve upward; every other
// metric improves downward.
var higherIsBetter = map[string]bool{"sat_qps": true, "trace.self_sum_ratio": true}

// lastLine decodes the result line of a run's standard output.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("result line: %v\n%s", err, out)
	}
	return r
}

func names(specs []metricSpec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.name
	}
	return out
}

// TestWorkloadsTinyScale runs every workload, untraced and traced, at a
// tiny input scale and checks the result line.
func TestWorkloadsTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, wl := range []string{"batch", "serve-cold"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", wl, "--seed", "3", "--seconds", "1", "--trace", trace,
					"--root", repoRoot, "--scale", "0.02", "--qps", "10"}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				r := lastLine(t, stdout.String())
				if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer()
				}
				if len(r.Metrics) != len(want) {
					t.Fatalf("got %d metrics, want %d", len(r.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := r.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Fatalf("metric %s: got %+v, want unit %s", m.name, got, m.unit)
					}
					if trace == "0" && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v", m.name, got.Value)
					}
				}
				if trace == "1" && r.Metrics["trace.overhead_ratio"].Value <= 0 {
					t.Errorf("no tracing overhead reported")
				}
			})
		}
	}
}

// TestMetricNamesMatchBenchmarkJSON pins the printed metric names,
// units and directions to BENCHMARK.json.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(repoRoot + "/BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var wls []string
	for _, w := range spec.Workloads {
		wls = append(wls, w.Name)
	}
	if want := []string{"batch", "serve-cold"}; !reflect.DeepEqual(wls, want) {
		t.Errorf("workloads %v, want %v", wls, want)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark prints %d: %v", kind, len(got), len(want), names(want))
		}
		for i, m := range want {
			better := "lower"
			if higherIsBetter[m.name] {
				better = "higher"
			}
			if got[i].Name != m.name || got[i].Unit != m.unit || got[i].Better != better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %s %s %s", kind, i, got[i], m.name, m.unit, better)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer())
}

// TestOpenScheduleRepeats checks that a seed fixes the open-loop
// schedule, workflows included, that another seed changes it, and that
// no workflow repeats.
func TestOpenScheduleRepeats(t *testing.T) {
	ts, err := loadTemplates(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	sched := func(seed int64) ([]time.Duration, []string) {
		return openSchedule(seed, 20, 5*time.Second, newWorkflowSource(ts, seed))
	}
	d1, w1 := sched(7)
	d2, w2 := sched(7)
	d3, _ := sched(8)
	if len(d1) < 50 || !reflect.DeepEqual(d1, d2) || !reflect.DeepEqual(w1, w2) {
		t.Errorf("seed 7 gave two schedules (%d and %d arrivals)", len(d1), len(d2))
	}
	if reflect.DeepEqual(d1, d3) {
		t.Errorf("seeds 7 and 8 gave the same schedule")
	}
	seen := map[string]bool{}
	for _, w := range w1 {
		if seen[w] {
			t.Fatalf("a workflow repeated")
		}
		seen[w] = true
	}
}

// TestTailOf checks that the tail is the highest percentile with ten
// samples beyond it.
func TestTailOf(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if got := tailOf(xs); got.Value != 90 || got.Percentile != 90 || got.Beyond != 10 || got.Samples != 100 {
		t.Errorf("1..100: %+v", got)
	}
	if got := tailOf(xs[:11]); got.Beyond != 10 || got.Value != 90 {
		t.Errorf("11 samples: %+v", got)
	}
	if got := tailOf([]float64{3, 1, 2}); got.Value != 3 || got.Beyond != 0 || got.Percentile != 100 {
		t.Errorf("3 samples: %+v", got)
	}
	inf := append([]float64{math.Inf(1), math.Inf(1)}, xs...)
	if got := tailOf(inf); got.Value != 92 {
		t.Errorf("failed requests rank last: %+v", got)
	}
}

// TestSelfTime checks the self-time arithmetic on a hand-built tree.
func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 3, Name: "c", Start: 30, End: 35},
	}}
	kids := tr.children()
	for id, want := range map[int]int64{1: 50, 2: 30, 3: 25, 4: 5} {
		if got := tr.selfUs(id, kids); got != want {
			t.Errorf("span %d: self %d, want %d", id, got, want)
		}
	}
	if got := tr.selfSumRatio([]int{1}); got != 0.6 {
		t.Errorf("self-sum ratio %v, want 0.6", got)
	}
}
