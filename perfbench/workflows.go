package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// templateFiles are the example network-log queries the serve
// workloads draw from. They are read from the checkout, not copied, so
// the benchmark follows the examples as they change.
var templateFiles = []string{"busysources.aw", "escalation.aw", "multirecon.aw"}

// template is one example query with the parameters that vary from
// request to request.
type template struct {
	name string
	text string
}

// loadTemplates reads examples/queries/*.aw under the checkout root.
func loadTemplates(root string) ([]template, error) {
	out := make([]template, 0, len(templateFiles))
	for _, f := range templateFiles {
		b, err := os.ReadFile(filepath.Join(root, "examples", "queries", f))
		if err != nil {
			return nil, fmt.Errorf("load query template: %w", err)
		}
		out = append(out, template{name: strings.TrimSuffix(f, ".aw"), text: string(b)})
	}
	return out, nil
}

var (
	reThreshold = regexp.MustCompile(`"m0 (>=?) \d+"`)
	reWindow    = regexp.MustCompile(`agg=\w+ window t (-?\d+)\.\.(-?\d+)`)
	reGran      = map[string]*regexp.Regexp{
		"t": regexp.MustCompile(`\bt=[^,)]+`),
		"U": regexp.MustCompile(`\bU=[^,)]+`),
		"T": regexp.MustCompile(`\bT=[^,)]+`),
	}
)

// granChoices are the granularities each template varies over: the
// combinations of its shape that the Section 6 decision sends down the
// sort/scan path under awserved's defaults. Coarser ones go to the
// single-scan engine, about five times faster at this size, and a mix
// of the two would put the median latency on whichever side of the
// split a seed happens to favour.
var granChoices = map[string][]map[string]string{
	"busysources": {
		{"t": "Hour", "U": "IP"}, {"t": "Day", "U": "IP"}, {"t": "Hour", "U": "/24"},
	},
	"escalation": {
		{"t": "Hour", "T": "/24"},
	},
	"multirecon": {
		{"t": "Day", "T": "/24", "U": "IP"}, {"t": "Day", "T": "/16", "U": "IP"}, {"t": "Day", "T": "/24", "U": "/24"},
		{"t": "Hour", "T": "/24", "U": "IP"}, {"t": "Hour", "T": "/16", "U": "IP"}, {"t": "Hour", "T": "/24", "U": "/24"},
	},
}

// windowAggs are the aggregations a sliding window may use.
var windowAggs = []string{"sum", "avg", "min", "max"}

// variant rewrites a template with seeded parameters: every selection
// threshold and each sliding window's bounds and aggregation. The
// granularities are granChoices[t.name][g], cycled by the caller.
// Windows stay within six steps and keep their sign (trailing windows
// stay trailing), so every variant is a valid workflow of similar cost.
func (t template) variant(rng *rand.Rand, g int) string {
	s := reThreshold.ReplaceAllStringFunc(t.text, func(m string) string {
		op := reThreshold.FindStringSubmatch(m)[1]
		return fmt.Sprintf(`"m0 %s %d"`, op, 1+rng.Intn(60))
	})
	s = reWindow.ReplaceAllStringFunc(s, func(m string) string {
		sub := reWindow.FindStringSubmatch(m)
		agg := windowAggs[rng.Intn(len(windowAggs))]
		lo, _ := strconv.Atoi(sub[1])
		if lo < 0 {
			a, b := -1-rng.Intn(6), -1-rng.Intn(6)
			if a > b {
				a, b = b, a
			}
			return fmt.Sprintf("agg=%s window t %d..%d", agg, a, b)
		}
		return fmt.Sprintf("agg=%s window t 0..%d", agg, 1+rng.Intn(6))
	})
	if cs := granChoices[t.name]; len(cs) > 0 {
		for dim, level := range cs[g%len(cs)] {
			s = reGran[dim].ReplaceAllString(s, dim+"="+level)
		}
	}
	return s
}
