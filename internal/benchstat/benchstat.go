// Package benchstat parses the committed BENCH_PR*.json benchmark
// snapshots (the cmd/benchjson schema) and diffs two of them under
// noise-aware thresholds, so `cmd/benchdiff` can turn the benchmark
// trajectory into an enforced regression contract: per-metric relative
// budgets with absolute floors, a minimum-iteration guard for wall-time
// metrics, and cross-machine detection.
package benchstat

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// Result is one benchmark record: the subbenchmark path, the iteration
// count the numbers were averaged over, and every reported metric keyed
// by its unit (ns/op, B/op, allocs/op, and b.ReportMetric custom units).
type Result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Doc is one whole converted benchmark run. Env carries the `go test`
// header lines (goos, goarch, cpu, pkg) plus, since PR 10, the Go
// toolchain version under "go"; older committed snapshots simply lack
// that key and still parse.
type Doc struct {
	Env     map[string]string `json:"env"`
	Results []Result          `json:"results"`
}

// ParseDoc decodes and validates one bench JSON document. It accepts
// every BENCH_PR3…PR9 snapshot ever committed (no required env keys, no
// required metric units) but rejects structurally hostile input:
// non-JSON, unnamed results, negative iteration counts, unnamed or
// non-finite metrics.
func ParseDoc(data []byte) (*Doc, error) {
	var doc Doc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("bench json: %w", err)
	}
	for i, r := range doc.Results {
		if r.Name == "" {
			return nil, fmt.Errorf("bench json: result %d has no name", i)
		}
		if r.Iterations < 0 {
			return nil, fmt.Errorf("bench json: %s: negative iteration count %d", r.Name, r.Iterations)
		}
		for unit, v := range r.Metrics {
			if unit == "" {
				return nil, fmt.Errorf("bench json: %s: metric with empty unit", r.Name)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("bench json: %s: metric %q is not finite", r.Name, unit)
			}
		}
	}
	return &doc, nil
}

// LoadDoc reads and parses the bench JSON at path.
func LoadDoc(path string) (*Doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	doc, err := ParseDoc(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// SameMachine reports whether two snapshots were recorded on comparable
// hardware: equal, non-empty cpu and goarch env entries. Wall-time
// metrics are only gateable when this holds — an ns/op delta between a
// developer workstation and a CI runner measures the machines, not the
// code.
func SameMachine(old, new *Doc) bool {
	if old == nil || new == nil {
		return false
	}
	oc, nc := old.Env["cpu"], new.Env["cpu"]
	oa, na := old.Env["goarch"], new.Env["goarch"]
	return oc != "" && oc == nc && oa != "" && oa == na
}
