package benchstat

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from the current renderer")

func doc(results ...Result) *Doc {
	return &Doc{Env: map[string]string{"cpu": "test-cpu", "goarch": "amd64"}, Results: results}
}

func res(name string, iters int64, metrics map[string]float64) Result {
	return Result{Name: name, Iterations: iters, Metrics: metrics}
}

// classOf returns the class of the (name, unit) row, failing if absent.
func classOf(t *testing.T, rep *Report, name, unit string) (Class, string) {
	t.Helper()
	for _, d := range rep.Deltas {
		if d.Name == name && d.Unit == unit {
			return d.Class, d.Note
		}
	}
	t.Fatalf("no delta row for %s [%s]", name, unit)
	return 0, ""
}

func TestDiffThresholds(t *testing.T) {
	base := map[string]float64{"ns/op": 1_000_000, "B/op": 100_000, "allocs/op": 1000, "reconfigs": 11}
	// small is a row of a few allocations, like a one-pass wire decode.
	small := map[string]float64{"ns/op": 1_000, "B/op": 16, "allocs/op": 1}
	cases := []struct {
		name    string
		old     map[string]float64 // nil means base
		iters   int64
		metrics map[string]float64
		unit    string
		want    Class
		// otherMachine diffs with wall-time gating off, as cmd/benchdiff
		// does when SameMachine fails.
		otherMachine bool
	}{
		{"within all budgets", nil, 100, map[string]float64{"ns/op": 1_200_000, "B/op": 104_000, "allocs/op": 1050, "reconfigs": 11}, "allocs/op", ClassSame, false},
		{"alloc regression beyond 10%", nil, 100, map[string]float64{"ns/op": 1_000_000, "B/op": 100_000, "allocs/op": 1200, "reconfigs": 11}, "allocs/op", ClassRegressed, false},
		{"alloc improvement beyond 10%", nil, 100, map[string]float64{"ns/op": 1_000_000, "B/op": 100_000, "allocs/op": 500, "reconfigs": 11}, "allocs/op", ClassImproved, false},
		{"bytes under absolute floor", nil, 100, map[string]float64{"ns/op": 1_000_000, "B/op": 102_000, "allocs/op": 1000, "reconfigs": 11}, "B/op", ClassSame, false},
		{"small row allocs past the floor", small, 3, map[string]float64{"ns/op": 1_000, "B/op": 280, "allocs/op": 8}, "allocs/op", ClassRegressed, false},
		{"small row bytes past the floor", small, 3, map[string]float64{"ns/op": 1_000, "B/op": 280, "allocs/op": 8}, "B/op", ClassRegressed, false},
		{"time regression with iterations", nil, 100, map[string]float64{"ns/op": 2_000_000, "B/op": 100_000, "allocs/op": 1000, "reconfigs": 11}, "ns/op", ClassRegressed, false},
		{"time regression under min-iters", nil, 3, map[string]float64{"ns/op": 2_000_000, "B/op": 100_000, "allocs/op": 1000, "reconfigs": 11}, "ns/op", ClassInfo, false},
		{"time improvement", nil, 100, map[string]float64{"ns/op": 400_000, "B/op": 100_000, "allocs/op": 1000, "reconfigs": 11}, "ns/op", ClassImproved, false},
		{"time improvement under min-iters", nil, 3, map[string]float64{"ns/op": 400_000, "B/op": 100_000, "allocs/op": 1000, "reconfigs": 11}, "ns/op", ClassInfo, false},
		{"time improvement across machines", nil, 100, map[string]float64{"ns/op": 400_000, "B/op": 100_000, "allocs/op": 1000, "reconfigs": 11}, "ns/op", ClassInfo, true},
		{"model metric drift up", nil, 100, map[string]float64{"ns/op": 1_000_000, "B/op": 100_000, "allocs/op": 1000, "reconfigs": 12}, "reconfigs", ClassRegressed, false},
		{"model metric drift down", nil, 100, map[string]float64{"ns/op": 1_000_000, "B/op": 100_000, "allocs/op": 1000, "reconfigs": 10}, "reconfigs", ClassRegressed, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			metrics := tc.old
			if metrics == nil {
				metrics = base
			}
			old := doc(res("BenchmarkX", 100, metrics))
			new := doc(res("BenchmarkX", tc.iters, tc.metrics))
			opts := DefaultOptions()
			opts.GateTime = !tc.otherMachine
			rep := Diff(old, new, opts)
			if got, note := classOf(t, rep, "BenchmarkX", tc.unit); got != tc.want {
				t.Errorf("class = %v (%s), want %v", got, note, tc.want)
			}
		})
	}
}

// TestDiffZeroAllocBaselineGates: a benchmark whose baseline allocates
// nothing regresses at its first allocation per op, though one alloc/op
// sits far under the absolute floor; staying at zero is ok.
func TestDiffZeroAllocBaselineGates(t *testing.T) {
	old := doc(res("BenchmarkQueue/wheel", 3, map[string]float64{"allocs/op": 0, "B/op": 0}))
	for _, tc := range []struct {
		allocs float64
		want   Class
	}{
		{0, ClassSame},
		{1, ClassRegressed},
	} {
		new := doc(res("BenchmarkQueue/wheel", 3, map[string]float64{"allocs/op": tc.allocs, "B/op": 8 * tc.allocs}))
		rep := Diff(old, new, DefaultOptions())
		if got, note := classOf(t, rep, "BenchmarkQueue/wheel", "allocs/op"); got != tc.want {
			t.Errorf("0 → %v allocs/op: class = %v (%s), want %v", tc.allocs, got, note, tc.want)
		}
	}
}

func TestDiffTimeGateOffAcrossMachines(t *testing.T) {
	old := doc(res("BenchmarkX", 100, map[string]float64{"ns/op": 1_000_000}))
	new := doc(res("BenchmarkX", 100, map[string]float64{"ns/op": 5_000_000}))
	opts := DefaultOptions()
	opts.GateTime = false // what cmd/benchdiff sets when SameMachine fails
	rep := Diff(old, new, opts)
	if got, _ := classOf(t, rep, "BenchmarkX", "ns/op"); got != ClassInfo {
		t.Errorf("cross-machine time delta gated: %v", got)
	}
	if len(rep.Regressions()) != 0 {
		t.Errorf("cross-machine diff produced regressions: %v", rep.Regressions())
	}
}

func TestDiffMissingBenchmarkGates(t *testing.T) {
	old := doc(
		res("BenchmarkGone", 10, map[string]float64{"ns/op": 10}),
		res("BenchmarkKept", 10, map[string]float64{"ns/op": 10}),
	)
	new := doc(
		res("BenchmarkKept", 10, map[string]float64{"ns/op": 10}),
		res("BenchmarkNew", 10, map[string]float64{"ns/op": 10}),
	)
	rep := Diff(old, new, DefaultOptions())
	if got, _ := classOf(t, rep, "BenchmarkGone", "-"); got != ClassRegressed {
		t.Errorf("missing benchmark class = %v, want regressed", got)
	}
	if got, _ := classOf(t, rep, "BenchmarkNew", "-"); got != ClassInfo {
		t.Errorf("new benchmark class = %v, want info", got)
	}
}

func TestDiffMissingMetricGates(t *testing.T) {
	old := doc(res("BenchmarkX", 10, map[string]float64{"ns/op": 10, "allocs/op": 5}))
	new := doc(res("BenchmarkX", 10, map[string]float64{"ns/op": 10, "widgets": 1}))
	rep := Diff(old, new, DefaultOptions())
	if got, _ := classOf(t, rep, "BenchmarkX", "allocs/op"); got != ClassRegressed {
		t.Errorf("dark metric class = %v, want regressed", got)
	}
	if got, _ := classOf(t, rep, "BenchmarkX", "widgets"); got != ClassInfo {
		t.Errorf("new metric class = %v, want info", got)
	}
}

// randomDoc builds a deterministic pseudo-random snapshot: benchmark
// count, names, iteration counts, units, and values all derive from the
// seed, covering zero values, negatives, and wide magnitude ranges.
func randomDoc(seed int64) *Doc {
	rng := rand.New(rand.NewSource(seed))
	units := []string{"ns/op", "B/op", "allocs/op", "turnaround-s", "availability", "widgets"}
	d := &Doc{Env: map[string]string{"cpu": "prop-cpu", "goarch": "amd64"}}
	for i := 0; i < 1+rng.Intn(8); i++ {
		r := Result{
			Name:       fmt.Sprintf("BenchmarkProp%d/case=%d", rng.Intn(4), i),
			Iterations: int64(rng.Intn(200)),
			Metrics:    map[string]float64{},
		}
		for _, u := range units {
			switch rng.Intn(4) {
			case 0: // metric absent
			case 1:
				r.Metrics[u] = 0
			case 2:
				r.Metrics[u] = -rng.Float64() * 100
			default:
				r.Metrics[u] = rng.Float64() * math.Pow(10, float64(rng.Intn(9)))
			}
		}
		d.Results = append(d.Results, r)
	}
	return d
}

// TestDiffSelfIsEmpty is the property test: diffing any snapshot
// against itself must produce no regressions, no improvements, and no
// informational rows — every row ClassSame.
func TestDiffSelfIsEmpty(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		d := randomDoc(seed)
		rep := Diff(d, d, DefaultOptions())
		for _, delta := range rep.Deltas {
			if delta.Class != ClassSame {
				t.Fatalf("seed %d: diff(A,A) produced %v for %s [%s] (%s)",
					seed, delta.Class, delta.Name, delta.Unit, delta.Note)
			}
		}
	}
}

// TestDiffDeterministic pins that Diff output order is stable across
// calls (map iteration must never leak into the report). Rendered
// markdown is the comparison key — NaN placeholders defeat DeepEqual.
func TestDiffDeterministic(t *testing.T) {
	old, new := randomDoc(7), randomDoc(8)
	render := func() string {
		var buf bytes.Buffer
		if err := Diff(old, new, DefaultOptions()).WriteMarkdown(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	first := render()
	for i := 0; i < 10; i++ {
		if got := render(); got != first {
			t.Fatal("Diff output depends on map iteration order")
		}
	}
}

// TestMarkdownGolden pins the rendered delta table byte for byte.
func TestMarkdownGolden(t *testing.T) {
	old := doc(
		res("BenchmarkDelta/alloc-regress", 100, map[string]float64{"ns/op": 1_000_000, "allocs/op": 1000}),
		res("BenchmarkDelta/faster", 100, map[string]float64{"ns/op": 1_000_000}),
		res("BenchmarkDelta/model", 100, map[string]float64{"ns/op": 1_000_000, "reconfigs": 11}),
		res("BenchmarkGone", 100, map[string]float64{"ns/op": 5000}),
	)
	new := doc(
		res("BenchmarkDelta/alloc-regress", 100, map[string]float64{"ns/op": 1_010_000, "allocs/op": 1500}),
		res("BenchmarkDelta/faster", 100, map[string]float64{"ns/op": 500_000}),
		res("BenchmarkDelta/model", 100, map[string]float64{"ns/op": 1_000_000, "reconfigs": 12}),
		res("BenchmarkAdded", 100, map[string]float64{"ns/op": 5000}),
	)
	var buf bytes.Buffer
	if err := Diff(old, new, DefaultOptions()).WriteMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "delta_table.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("markdown drifted from %s (regenerate with -update if intended)\ngot:\n%s\nwant:\n%s", path, buf.String(), want)
	}
}
