package dataflow

import (
	"flag"
	"fmt"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint/analysistest"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/summaries.golden from the current solver")

// TestSummaryGolden pins every provenance and taint fact the solver
// derives over the analyzer fixture packages: per-function results,
// sinks, parameter sinks and field writes, plus the global field and
// channel state. It pins the flow-sensitive layer the same way: each
// function's lock acquisitions with the classes held at them, the
// lock-order edges with their chains, and the spawn sites with MHP's
// Concurrent and Spawner sets. Each fixture package gets its own graph,
// exactly as the analyzers see it under analysistest.
func TestSummaryGolden(t *testing.T) {
	// dir names a second fixture tree under an analyzer's testdata.
	fixtures := []struct{ analyzer, dir, path string }{
		{"seedflow", "", "sim"},
		{"seedflow", "", "grid"},
		{"wiretaint", "", "controlplane"},
		{"wiretaint", "alloc", "controlplane"},
		{"logtaint", "", "controlplane"},
		{"lockcheck", "", "a"},
		{"lockorder", "", "a"},
		{"chanmisuse", "", "a"},
		{"goroleak", "", "a"},
	}
	var b strings.Builder
	for _, fx := range fixtures {
		pkg := analysistest.Load(t, filepath.Join("..", fx.analyzer, "testdata", fx.dir), fx.path)[0]
		g := Build([]*PackageInfo{{Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, Info: pkg.Info}})
		fmt.Fprintf(&b, "== %s\n", path.Join(fx.analyzer, fx.dir, fx.path))
		dumpGraph(&b, g)
	}
	got := b.String()

	path := filepath.Join("testdata", "summaries.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("summaries drifted from %s at line %d (regenerate with -update if intended)\ngot:  %s\nwant: %s", path, i+1, g, w)
			}
		}
	}
}

func dumpGraph(b *strings.Builder, g *Graph) {
	at := func(p token.Pos) string {
		pos := g.Fset.Position(p)
		return fmt.Sprintf("%s:%d:%d", filepath.Base(pos.Filename), pos.Line, pos.Column)
	}
	prov := func(v Value) string { return fmt.Sprintf("%s%s", v.Prov, paramBits(v.Params)) }
	taint := func(v TaintValue) string {
		if !v.Tainted {
			return "clean" + paramBits(v.Params)
		}
		return fmt.Sprintf("tainted(%s)%s", v.Src, paramBits(v.Params))
	}
	held := func(s LockSet) string {
		if len(s) == 0 {
			return "nothing"
		}
		var parts []string
		for _, c := range s.SortedClasses() {
			parts = append(parts, c+mode(s[c].Lock)+"@"+at(s[c].Pos))
		}
		return strings.Join(parts, ", ")
	}
	lg := g.LockGraph()
	for _, n := range g.SortedFuncs() {
		fmt.Fprintf(b, "func %s\n", n.Fn.FullName())
		for _, a := range lg.Locks[n.Fn].Acquires {
			fmt.Fprintf(b, "  lock %s %s%s holding %s\n", at(a.Pos), a.Lock.Class, mode(a.Lock), held(a.Held))
		}
		if sum := g.Summary(n.Fn); sum != nil {
			for i, r := range sum.Results {
				fmt.Fprintf(b, "  prov result %d: %s\n", i, prov(r))
			}
			for _, s := range sum.Sinks {
				fmt.Fprintf(b, "  prov sink %s via %s: %s\n", at(s.Pos), strings.Join(s.Chain, " < "), prov(s.Val))
			}
			for _, i := range sortedKeys(sum.ParamSinks) {
				s := sum.ParamSinks[i]
				fmt.Fprintf(b, "  prov param %d sink %s via %s\n", i, at(s.Pos), strings.Join(s.Chain, " < "))
			}
		}
		if sum := g.Taint(n.Fn); sum != nil {
			for i, r := range sum.Results {
				fmt.Fprintf(b, "  taint result %d: %s\n", i, taint(r))
			}
			for _, s := range sum.Sinks {
				fmt.Fprintf(b, "  taint sink %s %s via %s: %s\n", at(s.Pos), s.Kind, strings.Join(s.Chain, " < "), taint(s.Val))
			}
			for _, i := range sortedKeys(sum.ParamSinks) {
				s := sum.ParamSinks[i]
				fmt.Fprintf(b, "  taint param %d sink %s %s via %s\n", i, at(s.Pos), s.Kind, strings.Join(s.Chain, " < "))
			}
			for _, k := range sortedKeys(sum.FieldWrites) {
				fmt.Fprintf(b, "  taint field write %s%s\n", k, paramBits(sum.FieldWrites[k]))
			}
		}
	}
	for _, from := range sortedKeys(lg.Edges) {
		for _, to := range sortedKeys(lg.Edges[from]) {
			for _, e := range lg.Edges[from][to] {
				fmt.Fprintf(b, "lock edge %s -> %s at %s via %s\n", from, to, at(e.Pos), strings.Join(e.Chain, " > "))
			}
		}
	}
	mhp := g.MHP()
	for _, s := range mhp.Spawns {
		var targets []string
		for _, fn := range s.Targets {
			targets = append(targets, fn.FullName())
		}
		fmt.Fprintf(b, "spawn %s in %s starts [%s]\n", at(s.Stmt.Pos()), s.Fn.FullName(), strings.Join(targets, " "))
	}
	for _, fn := range sortedFuncNames(mhp.Concurrent) {
		fmt.Fprintf(b, "concurrent %s\n", fn)
	}
	for _, fn := range sortedFuncNames(mhp.Spawner) {
		fmt.Fprintf(b, "spawner %s\n", fn)
	}
	// Global entries that read as "no information" are indistinguishable
	// from absent ones, so only informative entries are pinned.
	for _, k := range sortedKeys(g.prov.fields) {
		if v := g.prov.fields[k]; v != (Value{Prov: Unknown}) {
			fmt.Fprintf(b, "prov field %s: %s\n", k, prov(v))
		}
	}
	for _, k := range sortedKeys(g.prov.chans) {
		if v := g.prov.chans[k]; v != (Value{Prov: Unknown}) {
			fmt.Fprintf(b, "prov chan %s: %s\n", k, prov(v))
		}
	}
	for _, k := range sortedKeys(g.taint.fields) {
		if v := g.taint.fields[k]; v != (TaintValue{}) {
			fmt.Fprintf(b, "taint field %s: %s\n", k, taint(v))
		}
	}
	for _, k := range sortedKeys(g.taint.chans) {
		if v := g.taint.chans[k]; v != (TaintValue{}) {
			fmt.Fprintf(b, "taint chan %s: %s\n", k, taint(v))
		}
	}
}

func mode(l Lock) string {
	if l.Reader {
		return "(R)"
	}
	return ""
}

func sortedFuncNames(set map[*types.Func]bool) []string {
	names := make([]string, 0, len(set))
	for fn := range set {
		names = append(names, fn.FullName())
	}
	sort.Strings(names)
	return names
}

func paramBits(p uint64) string {
	if p == 0 {
		return ""
	}
	return fmt.Sprintf(" params=%#x", p)
}

func sortedKeys[K int | string, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
