// Package covmatrix computes the scenario coverage matrix: which
// strategy × fault-regime × workload-family cells are pinned by a
// golden file or a differential suite. Coverage is declared where it
// lives — `//scenario:` marker comments in the repo's _test.go files —
// and verified against the filesystem, so deleting a golden file or a
// test flips its cells dark. The committed COVERAGE.md (generated by
// cmd/covgen) is guarded by a tier-1 test: a previously covered cell
// going dark fails the build.
//
// Marker grammar, one per comment line:
//
//	//scenario:golden strategy=reconfig-aware regime=moderate workload=default file=testdata/fault_trace.csv
//	//scenario:differential strategy=all regime=none,moderate,hostile workload=default
//
// strategy and regime accept comma lists or "all"; workload accepts a
// comma list. A golden marker's cells are covered only while its file=
// path (relative to the marker's directory) exists; a differential
// marker's cells are covered while the marker itself exists. Unknown
// axis values are errors, so a typo cannot silently widen coverage.
package covmatrix

import (
	"bufio"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/sched"
)

// Regimes is the fault-regime axis: no injected faults, the golden
// trace's moderate spec, and the determinism suite's hostile spec.
func Regimes() []string { return []string{"none", "moderate", "hostile"} }

// Workloads is the workload-family axis. Families without any covered
// cell render dark — the matrix exists to make those gaps visible.
func Workloads() []string {
	return []string{"default", "dag", "hybrid", "churn", "locality", "io", "control-plane"}
}

// Strategies is the strategy axis: every strategy shipped in
// internal/sched, by construction — a new strategy automatically adds a
// dark row until coverage lands.
func Strategies() []string { return sched.Names() }

// Kind is how a cell is evidenced.
type Kind int

const (
	// KindGolden: a committed golden artifact pins the cell byte for byte.
	KindGolden Kind = iota
	// KindDifferential: a differential or property suite exercises the
	// cell (trace↔metrics, shard-count independence, conservation, ...).
	KindDifferential
)

func (k Kind) String() string {
	if k == KindGolden {
		return "golden"
	}
	return "differential"
}

// Cell is one coordinate of the matrix.
type Cell struct {
	Strategy, Regime, Workload string
}

func (c Cell) String() string {
	return c.Strategy + "/" + c.Regime + "/" + c.Workload
}

// Source is one piece of evidence for a cell.
type Source struct {
	Kind Kind
	// Path is repo-relative: the golden file for KindGolden, the test
	// file carrying the marker for KindDifferential.
	Path string
}

// Matrix is the computed coverage.
type Matrix struct {
	Strategies, Regimes, Workloads []string
	// Cells maps covered cells to their deduplicated, sorted evidence.
	Cells map[Cell][]Source
	// Dangling lists golden markers whose file= target does not exist
	// (the marker stayed, the artifact left): these cells are dark.
	Dangling []string
}

// has reports whether the cell has a source of kind k.
func (m *Matrix) has(c Cell, k Kind) bool {
	for _, s := range m.Cells[c] {
		if s.Kind == k {
			return true
		}
	}
	return false
}

// Compute walks every *_test.go under root (skipping testdata and
// hidden directories), parses scenario markers, and resolves them
// against the filesystem.
func Compute(root string) (*Matrix, error) {
	m := &Matrix{
		Strategies: Strategies(),
		Regimes:    Regimes(),
		Workloads:  Workloads(),
		Cells:      map[Cell][]Source{},
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), "_test.go") {
			return nil
		}
		return m.scanFile(root, path)
	})
	if err != nil {
		return nil, err
	}
	for cell, srcs := range m.Cells {
		m.Cells[cell] = dedupSources(srcs)
	}
	sort.Strings(m.Dangling)
	return m, nil
}

const markerPrefix = "//scenario:"

// scanFile parses every scenario marker in one test file.
func (m *Matrix) scanFile(root, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rel, err := filepath.Rel(root, path)
	if err != nil {
		return err
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		idx := strings.Index(line, markerPrefix)
		if idx < 0 {
			continue
		}
		at := fmt.Sprintf("%s:%d", rel, lineNo)
		if err := m.addMarker(root, filepath.Dir(path), rel, at, line[idx+len(markerPrefix):]); err != nil {
			return err
		}
	}
	return sc.Err()
}

// addMarker validates and applies one marker body ("golden key=value ...").
func (m *Matrix) addMarker(root, dir, rel, at, body string) error {
	fields := strings.Fields(body)
	if len(fields) == 0 {
		return fmt.Errorf("%s: empty scenario marker", at)
	}
	var kind Kind
	switch fields[0] {
	case "golden":
		kind = KindGolden
	case "differential":
		kind = KindDifferential
	default:
		return fmt.Errorf("%s: unknown scenario marker kind %q (want golden or differential)", at, fields[0])
	}
	var strategies, regimes, workloads []string
	var file string
	for _, kv := range fields[1:] {
		key, val, ok := strings.Cut(kv, "=")
		if !ok || val == "" {
			return fmt.Errorf("%s: malformed scenario field %q (want key=value)", at, kv)
		}
		var err error
		switch key {
		case "strategy":
			strategies, err = expandAxis(val, m.Strategies)
		case "regime":
			regimes, err = expandAxis(val, m.Regimes)
		case "workload":
			workloads, err = expandAxis(val, m.Workloads)
		case "file":
			file = val
		default:
			err = fmt.Errorf("unknown key %q", key)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", at, err)
		}
	}
	if len(strategies) == 0 || len(regimes) == 0 || len(workloads) == 0 {
		return fmt.Errorf("%s: scenario marker needs strategy=, regime=, and workload=", at)
	}

	src := Source{Kind: kind, Path: rel}
	if kind == KindGolden {
		if file == "" {
			return fmt.Errorf("%s: golden marker needs file=", at)
		}
		goldenPath := filepath.Join(dir, file)
		if st, err := os.Stat(goldenPath); err != nil || st.IsDir() {
			// The artifact is gone: the cells it pinned go dark, which
			// the COVERAGE.md guard turns into a build failure.
			relGolden, rerr := filepath.Rel(root, goldenPath)
			if rerr != nil {
				relGolden = goldenPath
			}
			m.Dangling = append(m.Dangling, fmt.Sprintf("%s -> %s", at, filepath.ToSlash(relGolden)))
			return nil
		}
		relGolden, err := filepath.Rel(root, goldenPath)
		if err != nil {
			return err
		}
		src.Path = filepath.ToSlash(relGolden)
	}
	for _, s := range strategies {
		for _, r := range regimes {
			for _, w := range workloads {
				cell := Cell{Strategy: s, Regime: r, Workload: w}
				m.Cells[cell] = append(m.Cells[cell], src)
			}
		}
	}
	return nil
}

// expandAxis resolves "all" or a comma list against the axis domain.
func expandAxis(val string, domain []string) ([]string, error) {
	if val == "all" {
		return domain, nil
	}
	var out []string
	for _, v := range strings.Split(val, ",") {
		found := false
		for _, d := range domain {
			if v == d {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown axis value %q (domain %v)", v, domain)
		}
		out = append(out, v)
	}
	return out, nil
}

func dedupSources(srcs []Source) []Source {
	sort.Slice(srcs, func(i, j int) bool {
		if srcs[i].Kind != srcs[j].Kind {
			return srcs[i].Kind < srcs[j].Kind
		}
		return srcs[i].Path < srcs[j].Path
	})
	out := srcs[:0]
	for i, s := range srcs {
		if i == 0 || s != srcs[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// WriteMarkdown renders the full generated document: header, one table
// per regime, and the per-cell evidence list. Byte-deterministic; this
// is exactly what cmd/covgen commits as COVERAGE.md and what the guard
// test recomputes.
func (m *Matrix) WriteMarkdown(w io.Writer) error {
	fmt.Fprintln(w, "# Scenario coverage matrix")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "<!-- Generated by `go run ./cmd/covgen -out COVERAGE.md`. Do not edit by hand.")
	fmt.Fprintln(w, "     Guarded by internal/covmatrix: a previously covered cell going dark fails tier-1. -->")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Cell legend: `G` golden artifact, `D` differential/property suite, `G+D` both, `·` uncovered.")
	if err := m.writeTables(w); err != nil {
		return err
	}
	return m.writeSources(w)
}

func (m *Matrix) writeTables(w io.Writer) error {
	for _, regime := range m.Regimes {
		fmt.Fprintf(w, "\n## Fault regime: %s\n\n", regime)
		fmt.Fprintf(w, "| strategy \\ workload |")
		for _, wl := range m.Workloads {
			fmt.Fprintf(w, " %s |", wl)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "|---|")
		for range m.Workloads {
			fmt.Fprintf(w, "---|")
		}
		fmt.Fprintln(w)
		for _, s := range m.Strategies {
			fmt.Fprintf(w, "| %s |", s)
			for _, wl := range m.Workloads {
				cell := Cell{Strategy: s, Regime: regime, Workload: wl}
				glyph := "·"
				switch g, d := m.has(cell, KindGolden), m.has(cell, KindDifferential); {
				case g && d:
					glyph = "G+D"
				case g:
					glyph = "G"
				case d:
					glyph = "D"
				}
				fmt.Fprintf(w, " %s |", glyph)
			}
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
	}
	return nil
}

func (m *Matrix) writeSources(w io.Writer) error {
	fmt.Fprintln(w, "\n## Evidence")
	fmt.Fprintln(w)
	cells := make([]Cell, 0, len(m.Cells))
	for c := range m.Cells {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].String() < cells[j].String() })
	for _, c := range cells {
		for _, s := range m.Cells[c] {
			if _, err := fmt.Fprintf(w, "- `%s`: %s `%s`\n", c, s.Kind, s.Path); err != nil {
				return err
			}
		}
	}
	if len(m.Dangling) > 0 {
		fmt.Fprintln(w, "\n## Dangling golden markers (artifact missing — cells dark)")
		fmt.Fprintln(w)
		for _, d := range m.Dangling {
			if _, err := fmt.Fprintf(w, "- %s\n", d); err != nil {
				return err
			}
		}
	}
	return nil
}
