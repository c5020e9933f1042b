package main

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint"
)

// seedEdit replaces anchor, which must occur exactly once in the file,
// with text.
type seedEdit struct{ anchor, text string }

// catchRow seeds one bug into the tree and names the analyzer that must
// report it.
type catchRow struct {
	class string
	file  string // slash path from the module root
	edits []seedEdit
	// at names the line the finding lands on when that is not one of
	// the edited lines (a lock-order cycle is reported at its first
	// witnessing acquisition). It must occur exactly once in the seeded
	// file.
	at string
	// analyzer must report on the row's lines, and nothing else may.
	// Empty for a deleted analyzer's bug class that reconlint no longer
	// sees; the row's comment names what catches it now.
	analyzer string
	// deleted names the analyzer, no longer in the suite, whose bug
	// class the row covers.
	deleted string
}

// catchTable is one row per analyzer in lint.Suite, plus one row per
// deleted analyzer's bug class. Each row's comment records what the
// other gates made of the same seed, applied alone to commit 2991ce5
// (2 vCPUs, amd64, Go 1.24.0): go vet ./..., go test ./...,
// go test -race ./... and make benchdiff against BENCH_PR17.json. At
// that commit go test ran reconlint's taint analyzers over the tree in
// TestRepoTaintBaselineEmpty; a failure there is reconlint's catch, not
// a test's. benchdiff counts only the families that are not reconlint
// benchmarks, since BenchmarkReconlint fails whenever reconlint finds
// anything. A row re-seeded since then says where its seed was
// measured; there TestCatchTable itself fails on the seed, whose anchor
// it consumes, and does not count.
var catchTable = []catchRow{
	// Re-anchored on AddNode's indexLocked scan once the registry's ID
	// map went, and measured alone on that tree (parent 8591477) against
	// BENCH_PR21.json: vet clean; test, race pass; benchdiff unchanged.
	{
		class: "guarded fields written without the lock",
		file:  "internal/rms/registry.go",
		edits: []seedEdit{{
			"\tr.mu.Lock()\n\tdefer r.mu.Unlock()\n\tif r.indexLocked(n.ID) >= 0 {\n\t\treturn fmt.Errorf(\"rms: duplicate node %s\", n.ID)\n\t}\n\tr.nodes = append(r.nodes, n)\n",
			"\tif r.indexLocked(n.ID) >= 0 {\n\t\treturn fmt.Errorf(\"rms: duplicate node %s\", n.ID)\n\t}\n\tr.nodes = append(r.nodes, n)\n",
		}},
		analyzer: "lockcheck",
	},
	// vet clean; test, race pass; benchdiff unchanged (no gated family
	// draws a GPU task). TestWorkloadDeterministic now fails on it.
	{
		class: "global math/rand draw in workload generation",
		file:  "internal/grid/spec.go",
		edits: []seedEdit{
			{"import (\n", "import (\n\t\"math/rand\"\n"},
			{"0.9 + 0.09*rng.Float64()", "0.9 + 0.09*rand.Float64()"},
		},
		analyzer: "detrand",
	},
	// vet clean; test, race pass; benchdiff unchanged.
	// TestSweepCancelMidReplica now fails on it.
	{
		class:    "replica detached from the sweep's context",
		file:     "internal/grid/sweep.go",
		edits:    []seedEdit{{"\trctx := ctx\n", "\trctx := context.Background()\n"}},
		analyzer: "ctxflow",
	},
	// vet clean; test, race pass; benchdiff regressed: 8 model metrics
	// of FaultSweep/moderate and /hostile drift (hostile turnaround-s
	// 237.4 to 188.5). TestSweepSeedsFollowBaseSeed now fails on it.
	{
		class:    "constant root seed for replica seeds",
		file:     "internal/grid/sweep.go",
		edits:    []seedEdit{{"root := sim.NewRNG(s.BaseSeed)", "root := sim.NewRNG(1)"}},
		analyzer: "seedflow",
	},
	// vet clean; test, race pass; benchdiff unchanged.
	{
		class:    "dropped error on the completion path",
		file:     "internal/grid/engine.go",
		edits:    []seedEdit{{"\tif err := lease.Release(); err != nil {\n\t\tpanic(fmt.Sprintf(\"grid: release failed: %v\", err))\n\t}\n", "\tlease.Release()\n"}},
		analyzer: "errflow",
	},
	// Re-seeded on finish's outage sum once power's per-kind maps became
	// arrays, and measured alone on that tree (parent 8591477) against
	// BENCH_PR21.json: vet clean; test, race pass; benchdiff unchanged
	// (no FaultSweep model metric moved).
	{
		class:    "float sum in map iteration order",
		file:     "internal/grid/engine.go",
		edits:    []seedEdit{{"\t\tfor _, id := range ids {\n\t\t\te.m.DownSeconds += float64(now - f.down[id].since)\n", "\t\tfor _, o := range f.down {\n\t\t\te.m.DownSeconds += float64(now - o.since)\n"}},
		analyzer: "maporder",
	},
	// vet clean; test, race pass; benchdiff unchanged.
	{
		class: "AB/BA lock order between a sink and the name table",
		file:  "internal/obs/csv.go",
		edits: []seedEdit{{
			"\tc.mu.Lock()\n\tdefer c.mu.Unlock()\n\treturn c.flushLocked()\n",
			"\tnameTable.RLock()\n\tdefer nameTable.RUnlock()\n\tc.mu.Lock()\n\tdefer c.mu.Unlock()\n\treturn c.flushLocked()\n",
		}},
		at:       "row = appendCSVField(row, ev.TaskID.String())",
		analyzer: "lockorder",
	},
	// vet clean; test, race pass; benchdiff unchanged.
	{
		class: "listener goroutine never joined",
		file:  "cmd/rmsd/main.go",
		edits: []seedEdit{{
			"\t\twg.Add(1)\n\t\tgo func() {\n\t\t\tdefer wg.Done()\n",
			"\t\tgo func() {\n",
		}},
		analyzer: "goroleak",
	},
	// vet clean; test, race pass; benchdiff unchanged.
	{
		class: "helper closes its caller's channel",
		file:  "internal/grid/sweep.go",
		edits: []seedEdit{
			{"\tclose(work)\n\twg.Wait()\n", "\tstopFeed(work)\n\twg.Wait()\n"},
			{"// runReplica executes one replica end to end", "// stopFeed ends the replica feed.\nfunc stopFeed(work chan int) { close(work) }\n\n// runReplica executes one replica end to end"},
		},
		analyzer: "chanmisuse",
	},
	// vet clean; test and race fail only in TestRepoTaintBaselineEmpty;
	// benchdiff unchanged.
	// The make-size seeds tried are caught by tests too: dropping the
	// MaxShards clamp fails TestMaxShardsClamp, and the sizecap row
	// below fails TestHeapPerTenant.
	{
		class: "load driver's -tasks flag reaches a loop bound unchecked",
		file:  "cmd/gridload/main.go",
		edits: []seedEdit{{
			"\tif opt.tenants > maxTenants || opt.tasks > maxTasksPerTenant || opt.conns > maxConns {\n",
			"\tif opt.tenants > maxTenants || opt.conns > maxConns {\n",
		}},
		at:       "for i := 0; i < opt.tasks; i++ {",
		analyzer: "wiretaint",
	},
	// vet clean; test and race fail only in TestRepoTaintBaselineEmpty;
	// benchdiff unchanged. Re-anchored on shard.do's one unknown-tenant
	// answer once a shard became a lock, and measured alone on that tree:
	// vet clean; test passes; race passes in internal/controlplane and
	// cmd/rmsd; benchdiff not run, as no benchmark names an unknown
	// tenant.
	{
		class:    "tenant name used as a format string",
		file:     "internal/controlplane/shard.go",
		edits:    []seedEdit{{"errorResponse(req.Op, errWire(CodeUnknownTenant, \"unknown tenant %q\", req.Tenant))", "errorResponse(req.Op, errWire(CodeUnknownTenant, \"unknown tenant \"+req.Tenant))"}},
		analyzer: "logtaint",
	},
	// hotalloc's class; hotalloc reported it. vet clean; test, race
	// pass; benchdiff regressed: FaultSweep/no-faults 36,386 to 488,324
	// allocs/op, ArrivalSweep first-fit λ=0.5 3,718 to 6,501. Re-seeded
	// in the placement step's candidate loop, which every placement runs,
	// and measured alone on that tree: TestPlaceWarmZeroAllocs,
	// TestDispatchRoundNothingFitsZeroAllocs,
	// TestDispatchCompletionAllocs, TestRunAllocsPerTask,
	// TestSubmitRunAllocs and TestWireSubmitAllocs fail on it, 10 runs
	// of 10; TestFaultRunAllocsPerTask, added later, fails on it too.
	{
		class: "per-candidate fmt.Sprintf on the dispatch path",
		file:  "internal/sched/place.go",
		edits: []seedEdit{
			{"import (\n", "import (\n\t\"fmt\"\n"},
			{"\t\tif !ok {\n\t\t\tcontinue\n", "\t\tif !ok || fmt.Sprintf(\"%s/%s\", c.Node.ID, c.Elem.ID) == \"\" {\n\t\t\tcontinue\n"},
		},
		deleted: "hotalloc",
	},
	// sizecap's class; sizecap and wiretaint both reported it. vet
	// clean; test fails in TestHeapPerTenant (512,739 B per tenant
	// against 4,096) and TestRepoTaintBaselineEmpty, race only in the
	// latter; benchdiff regressed: BenchmarkControlPlane 474,866 to
	// 3,955,880 B/op. Now wiretaint reports it, 10 runs of 10.
	// Re-anchored on the task table's index once the tenant's task map
	// became that table, made with a tenant's first task, and measured
	// alone on that tree: vet clean; test and race fail in
	// TestHeapPerTenant (39,655 B per tenant against 1,533, 39,846 B
	// against 1,834 with ten tasks); BenchmarkControlPlane read 345,877
	// B/op, about four times its baseline.
	{
		class:    "operator queue bound presizes a tenant map unclamped",
		file:     "internal/controlplane/tenant.go",
		edits:    []seedEdit{{"\t\tte.tasks = new(taskTable)\n", "\t\tte.tasks = &taskTable{index: make([]uint32, te.policy.MaxQueue)}\n"}},
		analyzer: "wiretaint",
		deleted:  "sizecap",
	},
}

// lineSpan is the lines [from, to] on which row's finding may land.
type lineSpan struct{ from, to, row int }

// TestCatchTable seeds every row into one copy of the tree, runs the
// whole suite once, and checks each row's lines carry findings from
// exactly its analyzer and that nothing else is reported: the unseeded
// tree is clean.
func TestCatchTable(t *testing.T) {
	suite := map[string]bool{}
	for _, sa := range lint.Suite() {
		suite[sa.Name] = true
	}
	covered := map[string]bool{}
	for _, r := range catchTable {
		if r.deleted != "" {
			if suite[r.deleted] {
				t.Errorf("row %q covers %s, which is still in the suite", r.class, r.deleted)
			}
			continue
		}
		covered[r.analyzer] = true
	}
	for name := range suite {
		if !covered[name] {
			t.Errorf("analyzer %s has no row of its own in the catch table", name)
		}
	}

	dir := t.TempDir()
	copyTree(t, filepath.Join("..", ".."), dir)
	spans := seedRows(t, dir)

	resetGlobals()
	defer resetGlobals()
	var stdout, stderr bytes.Buffer
	if code := run(dir, []string{"./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("seeded tree exit = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	found := make([]bool, len(catchTable))
	finding := regexp.MustCompile(`^(.+):(\d+):\d+: .* \((\w+)\)$`)
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		m := finding.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("unparsed finding: %s", line)
			continue
		}
		rel, err := filepath.Rel(dir, m[1])
		if err != nil {
			t.Fatal(err)
		}
		n, _ := strconv.Atoi(m[2])
		row := -1
		for _, sp := range spans[filepath.ToSlash(rel)] {
			if sp.from <= n && n <= sp.to {
				row = sp.row
			}
		}
		switch {
		case row < 0:
			t.Errorf("finding outside every seeded row: %s", line)
		case catchTable[row].analyzer != m[3]:
			t.Errorf("row %q: %s reported, want %q: %s", catchTable[row].class, m[3], catchTable[row].analyzer, line)
		default:
			found[row] = true
		}
	}
	for i, r := range catchTable {
		if r.analyzer != "" && !found[i] {
			t.Errorf("row %q: %s did not report the seed in %s", r.class, r.analyzer, r.file)
		}
	}
}

// copyTree copies go.mod and every non-test Go file outside bench/ and
// testdata/ directories from root into dir.
func copyTree(t *testing.T, root, dir string) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if rel == "bench" || name == "testdata" || (rel != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if rel != "go.mod" && (!strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go")) {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		dst := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		return os.WriteFile(dst, src, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// seedRows applies every row's edits to the copy in dir and returns,
// by slash path, the lines each row's finding may land on.
func seedRows(t *testing.T, dir string) map[string][]lineSpan {
	t.Helper()
	type placed struct {
		off, row int
		seedEdit
	}
	byFile := map[string][]placed{}
	for i, r := range catchTable {
		for _, e := range r.edits {
			byFile[r.file] = append(byFile[r.file], placed{row: i, seedEdit: e})
		}
	}
	spans := map[string][]lineSpan{}
	for file, edits := range byFile {
		path := filepath.Join(dir, filepath.FromSlash(file))
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		src := string(raw)
		for i := range edits {
			if n := strings.Count(src, edits[i].anchor); n != 1 {
				t.Fatalf("row %q: anchor occurs %d times in %s, want once:\n%s", catchTable[edits[i].row].class, n, file, edits[i].anchor)
			}
			edits[i].off = strings.Index(src, edits[i].anchor)
		}
		sort.Slice(edits, func(i, j int) bool { return edits[i].off < edits[j].off })
		var out strings.Builder
		last := 0
		for _, e := range edits {
			if e.off < last {
				t.Fatalf("%s: row %q's anchor overlaps another row's", file, catchTable[e.row].class)
			}
			out.WriteString(src[last:e.off])
			from := strings.Count(out.String(), "\n") + 1
			out.WriteString(e.text)
			to := from + strings.Count(strings.TrimSuffix(e.text, "\n"), "\n")
			spans[file] = append(spans[file], lineSpan{from, to, e.row})
			last = e.off + len(e.anchor)
		}
		out.WriteString(src[last:])
		seeded := out.String()
		for i, r := range catchTable {
			if r.file != file || r.at == "" {
				continue
			}
			if n := strings.Count(seeded, r.at); n != 1 {
				t.Fatalf("row %q: at-line occurs %d times in seeded %s, want once", r.class, n, file)
			}
			line := strings.Count(seeded[:strings.Index(seeded, r.at)], "\n") + 1
			spans[file] = append(spans[file], lineSpan{line, line, i})
		}
		if err := os.WriteFile(path, []byte(seeded), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return spans
}
