package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"

	"awra/aw"
)

// median returns the middle value (mean of the two middles for an even
// count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the highest percentile of a sample that still has at least
// tailBeyond samples above it.
type tail struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	Samples    int     `json:"samples"`
	Beyond     int     `json:"beyond"`
}

const tailBeyond = 10

// tailOf returns the sample with exactly tailBeyond samples above it,
// and the percentile it sits at. Samples of +Inf (failed or shed
// requests) rank above every finite latency. With too few samples for
// any percentile to have tailBeyond beyond it, it returns the maximum
// and says so through Beyond.
func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n <= tailBeyond {
		return tail{Value: s[n-1], Percentile: 100, Samples: n}
	}
	k := n - tailBeyond - 1
	return tail{Value: s[k], Percentile: 100 * float64(k+1) / float64(n), Samples: n, Beyond: tailBeyond}
}

// finite maps +Inf (a request that failed or was shed) to the largest
// float, so it still encodes as a JSON number.
func finite(v float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return math.MaxFloat64
	}
	return v
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) { return statusMB("VmHWM:") }

// statusMB reads one kB-valued field of /proc/self/status, in MB.
func statusMB(field string) (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %s %w", field, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/self/status", field)
}

// numCPU counts the host's processors from /proc/cpuinfo; it differs
// from nproc when the process is pinned to a subset.
func numCPU() int {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return 0
	}
	n := 0
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "processor") {
			n++
		}
	}
	return n
}

// runtimeSample is a point-in-time reading of the Go runtime's
// allocation and CPU accounting.
type runtimeSample struct {
	allocBytes float64
	gcCPU      float64
	totalCPU   float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: val(0), gcCPU: val(1), totalCPU: val(2)}
}

// allocMB is the heap allocated between two samples.
func allocMB(a, b runtimeSample) float64 { return (b.allocBytes - a.allocBytes) / (1 << 20) }

// gcShare is the share of the process's CPU time spent in the garbage
// collector between two samples.
func gcShare(a, b runtimeSample) float64 {
	if d := b.totalCPU - a.totalCPU; d > 0 {
		return (b.gcCPU - a.gcCPU) / d
	}
	return 0
}

// digest is an order-independent fingerprint of a measure table: the
// cell count and a sum of per-cell hashes over (key, value bits). Two
// tables with equal digests hold the same cells with bit-identical
// values, barring a hash collision.
type digest struct {
	Cells int    `json:"cells"`
	Sum   uint64 `json:"sum"`
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func tableDigest(t *aw.Table) digest {
	if t == nil {
		return digest{Cells: -1}
	}
	var d digest
	for k, v := range t.Rows {
		h := uint64(14695981039346656037)
		for i := 0; i < len(k); i++ {
			h = (h ^ uint64(k[i])) * 1099511628211
		}
		d.Sum += mix64(h ^ mix64(math.Float64bits(v)))
		d.Cells++
	}
	return d
}

// resultDigests fingerprints every table of a result set by measure.
func resultDigests(res aw.Results) map[string]digest {
	out := make(map[string]digest, len(res))
	for name, t := range res {
		out[name] = tableDigest(t)
	}
	return out
}

// resultCells counts the cells across every table of a result set.
func resultCells(res aw.Results) int {
	n := 0
	for _, t := range res {
		if t != nil {
			n += len(t.Rows)
		}
	}
	return n
}

// sameDigests reports whether two result fingerprints agree on every
// measure.
func sameDigests(a, b map[string]digest) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// cpuTicks reads the host's busy and stolen CPU time from /proc/stat,
// in clock ticks. Stolen time is time a virtual CPU was runnable but
// the hypervisor ran something else.
func cpuTicks() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}
