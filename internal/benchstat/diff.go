package benchstat

import (
	"fmt"
	"math"
	"sort"
)

// Budget is one metric's noise allowance: a delta is significant only
// when it exceeds BOTH the relative share of the old value and the
// absolute floor. The floor keeps tiny absolute values (a 10 B/op pool
// amortization artifact, a sub-microsecond queue op) from tripping the
// relative test on noise.
type Budget struct {
	Rel float64 // relative budget, e.g. 0.10 = ±10%
	Abs float64 // absolute floor in the metric's own unit
}

// exceeded reports whether delta is outside the budget around old.
func (b Budget) exceeded(old, delta float64) bool {
	limit := math.Max(b.Rel*math.Abs(old), b.Abs)
	return math.Abs(delta) > limit
}

// Options tunes the diff's gating behaviour. The zero value gates
// nothing; start from DefaultOptions.
type Options struct {
	// Budgets maps metric units to their noise budgets. Units absent
	// from the map are model metrics (b.ReportMetric outputs such as
	// reconfigs or availability): deterministic simulator results where
	// any drift beyond ModelBudget means the model changed and the
	// baseline must be re-recorded intentionally.
	Budgets     map[string]Budget
	ModelBudget Budget
	// MinIters is the minimum iteration count (on both sides) for
	// wall-time metrics to gate; below it ns/op is reported but
	// informational — a 3-iteration sample routinely swings ±50%.
	MinIters int64
	// GateTime enables wall-time gating; callers clear it when
	// SameMachine(old, new) is false (cmd/benchdiff does this
	// automatically).
	GateTime bool
}

// timeUnits are wall-clock metrics: machine- and iteration-sensitive,
// so they gate only under GateTime and the MinIters guard.
var timeUnits = map[string]bool{"ns/op": true}

// allocUnits are allocation metrics: deterministic per op even at one
// iteration, so they always gate.
var allocUnits = map[string]bool{"B/op": true, "allocs/op": true}

// DefaultOptions is the contract the Makefile enforces. The numbers
// come from measured run-to-run variance on the reference machine:
// allocs/op repeats within ±0.01%, B/op within ±0.001%, model metrics
// byte-identically, while ns/op at -benchtime 3x swings ±50%. The
// allocation floors sit under the smallest rows' fallbacks: a wire
// decode of 1 alloc and 16 B/op that falls back to encoding/json (8
// allocs, 280 B/op) regresses.
func DefaultOptions() Options {
	return Options{
		Budgets: map[string]Budget{
			"ns/op":     {Rel: 0.35, Abs: 50_000},
			"B/op":      {Rel: 0.10, Abs: 256},
			"allocs/op": {Rel: 0.10, Abs: 4},
		},
		ModelBudget: Budget{Rel: 0.001, Abs: 1e-9},
		MinIters:    10,
		GateTime:    true,
	}
}

func (o Options) budgetFor(unit string) Budget {
	if b, ok := o.Budgets[unit]; ok {
		return b
	}
	return o.ModelBudget
}

// Class is a delta's verdict.
type Class int

const (
	// ClassSame: within the noise budget.
	ClassSame Class = iota
	// ClassImproved: better than the budget allows for (lower-is-better
	// units only, and wall time only where it may gate); never gates.
	ClassImproved
	// ClassInfo: a real delta that is deliberately not gated — the
	// metric is wall time off-machine or under-iterated, or the
	// benchmark/metric is new in this run.
	ClassInfo
	// ClassRegressed: outside the budget in the bad direction, or a
	// benchmark/metric that went dark. Gates the build.
	ClassRegressed
)

func (c Class) String() string {
	switch c {
	case ClassSame:
		return "ok"
	case ClassImproved:
		return "improved"
	case ClassInfo:
		return "info"
	case ClassRegressed:
		return "REGRESSED"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Delta is one (benchmark, unit) comparison row.
type Delta struct {
	Name string
	Unit string // "-" for whole-benchmark rows (missing/new benchmark)
	Old  float64
	New  float64
	// Pct is the relative change in percent; NaN when undefined
	// (missing side or old == 0).
	Pct   float64
	Class Class
	Note  string
}

// Report is a full diff between two snapshots.
type Report struct {
	Deltas []Delta
	// TimeGated records whether wall-time metrics were eligible to gate
	// (same machine or forced), for the report footer.
	TimeGated bool
}

// Regressions returns the gating rows.
func (r *Report) Regressions() []Delta {
	var out []Delta
	for _, d := range r.Deltas {
		if d.Class == ClassRegressed {
			out = append(out, d)
		}
	}
	return out
}

// Counts returns the number of rows per class.
func (r *Report) Counts() (same, improved, info, regressed int) {
	for _, d := range r.Deltas {
		switch d.Class {
		case ClassSame:
			same++
		case ClassImproved:
			improved++
		case ClassInfo:
			info++
		case ClassRegressed:
			regressed++
		}
	}
	return
}

// Diff compares two snapshots result-by-result and metric-by-metric.
// Matching is by benchmark name; a benchmark or metric present in old
// but absent from new "went dark" and gates exactly like a numeric
// regression (a deleted benchmark is how a perf contract rots), while
// anything new in new is informational. Duplicate names keep their
// first occurrence.
func Diff(old, new *Doc, opts Options) *Report {
	rep := &Report{TimeGated: opts.GateTime}
	oldBy := indexResults(old)
	newBy := indexResults(new)

	for _, name := range sortedNames(oldBy) {
		or := oldBy[name]
		nr, ok := newBy[name]
		if !ok {
			rep.Deltas = append(rep.Deltas, Delta{Name: name, Unit: "-", Old: math.NaN(), New: math.NaN(), Pct: math.NaN(), Class: ClassRegressed, Note: "benchmark missing from new run"})
			continue
		}
		for _, unit := range sortedUnits(or.Metrics) {
			ov := or.Metrics[unit]
			nv, ok := nr.Metrics[unit]
			if !ok {
				rep.Deltas = append(rep.Deltas, Delta{Name: name, Unit: unit, Old: ov, New: math.NaN(), Pct: math.NaN(), Class: ClassRegressed, Note: "metric missing from new run"})
				continue
			}
			rep.Deltas = append(rep.Deltas, classify(name, unit, ov, nv, or.Iterations, nr.Iterations, opts))
		}
		for _, unit := range sortedUnits(nr.Metrics) {
			if _, ok := or.Metrics[unit]; !ok {
				rep.Deltas = append(rep.Deltas, Delta{Name: name, Unit: unit, Old: math.NaN(), New: nr.Metrics[unit], Pct: math.NaN(), Class: ClassInfo, Note: "new metric"})
			}
		}
	}
	for _, name := range sortedNames(newBy) {
		if _, ok := oldBy[name]; !ok {
			rep.Deltas = append(rep.Deltas, Delta{Name: name, Unit: "-", Old: math.NaN(), New: math.NaN(), Pct: math.NaN(), Class: ClassInfo, Note: "new benchmark"})
		}
	}
	return rep
}

// classify applies the noise model to one matched metric pair.
func classify(name, unit string, ov, nv float64, oiters, niters int64, opts Options) Delta {
	d := Delta{Name: name, Unit: unit, Old: ov, New: nv, Pct: pct(ov, nv)}
	delta := nv - ov
	// A baseline that allocates nothing is a contract, not a noisy
	// figure: its first allocation regresses, whatever the floor.
	if unit == "allocs/op" && ov == 0 && nv > 0 {
		d.Class, d.Note = ClassRegressed, "baseline allocates nothing"
		return d
	}
	if !opts.budgetFor(unit).exceeded(ov, delta) {
		d.Class = ClassSame
		return d
	}
	// Wall time from another machine or too few iterations is noise in
	// either direction: it neither gates nor counts as an improvement.
	lowerBetter := timeUnits[unit] || allocUnits[unit]
	switch {
	case timeUnits[unit] && !opts.GateTime:
		d.Class, d.Note = ClassInfo, "wall time not gated across machines"
	case timeUnits[unit] && (oiters < opts.MinIters || niters < opts.MinIters):
		d.Class, d.Note = ClassInfo, fmt.Sprintf("under min-iteration guard (%d)", opts.MinIters)
	case lowerBetter && delta < 0:
		d.Class = ClassImproved
	case !lowerBetter:
		d.Class, d.Note = ClassRegressed, "model metric drifted; re-baseline if intended"
	default:
		d.Class = ClassRegressed
	}
	return d
}

func pct(ov, nv float64) float64 {
	if ov == 0 {
		return math.NaN()
	}
	return (nv - ov) / math.Abs(ov) * 100
}

func indexResults(doc *Doc) map[string]Result {
	out := make(map[string]Result)
	if doc == nil {
		return out
	}
	for _, r := range doc.Results {
		if _, dup := out[r.Name]; !dup {
			out[r.Name] = r
		}
	}
	return out
}

func sortedNames(by map[string]Result) []string {
	names := make([]string, 0, len(by))
	for name := range by {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func sortedUnits(m map[string]float64) []string {
	units := make([]string, 0, len(m))
	for u := range m {
		units = append(units, u)
	}
	sort.Strings(units)
	return units
}
