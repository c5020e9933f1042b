package reconvirt

import (
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pe"
	"repro/internal/rms"
	"repro/internal/task"
)

// softwareTask builds a minimal valid software-only task for facade tests
// and benchmarks.
func softwareTask(id string) *Task {
	return &Task{
		ID:               id,
		Outputs:          []task.DataOut{{DataID: id + "-out", SizeMB: 1}},
		ExecReq:          ExecReq{Scenario: SoftwareOnly, Requirements: task.GPPOnly(1000, 256)},
		EstimatedSeconds: 5,
		Work:             pe.Work{MInstructions: 5000, ParallelFraction: 0.5},
	}
}

func TestFacadeVirtualGridFlow(t *testing.T) {
	tc, err := NewToolchain("ise", "Virtex-5")
	if err != nil {
		t.Fatal(err)
	}
	vg, err := NewVirtualGrid(GridOptions{Toolchain: tc})
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode("NodeA")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddGPP(GPPCaps{CPUType: "Xeon", MIPS: 42000, OS: "Linux", RAMMB: 8192, Cores: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddRPE("XC5VLX330T"); err != nil {
		t.Fatal(err)
	}
	if err := vg.AttachNode(n); err != nil {
		t.Fatal(err)
	}
	cands, err := vg.MapTask(softwareTask("T1"))
	if err != nil || len(cands) != 1 {
		t.Fatalf("MapTask: %v, %d candidates", err, len(cands))
	}
}

func TestFacadeCaseStudy(t *testing.T) {
	reg, err := CaseStudyNodes()
	if err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 3 {
		t.Error("case-study grid shape")
	}
	tasks, err := CaseStudyTasks()
	if err != nil || len(tasks) != 4 {
		t.Fatalf("tasks: %v", err)
	}
	rows, err := TableII()
	if err != nil || len(rows) != 4 {
		t.Fatalf("TableII: %v", err)
	}
}

func TestFacadeIPAndDevices(t *testing.T) {
	if _, err := LookupIP("pairalign-core"); err != nil {
		t.Error(err)
	}
	d, err := LookupDevice("XC6VLX365T")
	if err != nil || d.Slices != 56880 {
		t.Errorf("device: %v %+v", err, d)
	}
	c, err := RVEX(4, 1)
	if err != nil || c.Config().Caps.IssueWidth != 4 {
		t.Errorf("rvex: %v", err)
	}
}

func TestFacadeParseAppAndSimulate(t *testing.T) {
	prog, err := ParseApp("App{Seq(Ta), Par(Tb,Tc)}")
	if err != nil {
		t.Fatal(err)
	}
	reg, err := BuildGrid(GridSpec{
		GPPNodes: 1, GPPsPerNode: 2,
		GPPCaps: GPPCaps{CPUType: "x", MIPS: 10000, OS: "linux", RAMMB: 2048, Cores: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	mm, err := NewMatchmaker(reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(DefaultEngineConfig(), reg, mm)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGraph()
	for _, id := range prog.TaskIDs() {
		if err := g.Add(softwareTask(id)); err != nil {
			t.Fatal(err)
		}
	}
	eng.Submit(0, "facade", g, prog, QoS{})
	m, err := eng.Run(context.Background())
	if err != nil || m.Completed != 3 {
		t.Fatalf("run: %v, completed=%d", err, m.Completed)
	}
}

func TestFacadeAlignAndPredict(t *testing.T) {
	rng := NewRNG(4)
	opts := DefaultFamily()
	opts.Count = 8
	opts.Length = 80
	seqs, err := GenerateProteinFamily(rng, opts)
	if err != nil {
		t.Fatal(err)
	}
	prof := NewProfiler()
	res, err := AlignProteins(seqs, prof)
	if err != nil {
		t.Fatal(err)
	}
	if res.Columns() <= 0 {
		t.Error("no alignment")
	}
	if prof.TotalSelf() <= 0 {
		t.Error("no profile")
	}
	pred, err := PredictArea(PairalignMetrics())
	if err != nil || pred.Slices <= 0 {
		t.Errorf("prediction: %v %+v", err, pred)
	}
}

func TestFacadeLevelsAndStrategies(t *testing.T) {
	if len(Strategies()) < 5 {
		t.Error("strategies missing")
	}
	if core.LevelOf(UserDefinedHW) != LevelFabric {
		t.Error("level mapping")
	}
	if !strings.Contains(LevelDevice.String(), "device") {
		t.Error("level name")
	}
}

func TestFacadeStreaming(t *testing.T) {
	tc, _ := NewToolchain("ise", "Virtex-5")
	reg := rmsRegistryForStream(t)
	mm, err := NewMatchmaker(reg, tc)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSimulator()
	mgr, err := NewStreamManager(mm, s)
	if err != nil {
		t.Fatal(err)
	}
	design, _ := LookupIP("fir64")
	sess, err := mgr.Admit(StreamSpec{
		ID: "cam", RateMBps: 50, MIPerMB: 2000, ParallelFraction: 0.98, Duration: 60,
		Req: ExecReq{
			Scenario:     UserDefinedHW,
			Requirements: task.FPGAFamily("Virtex-5", 100),
			Design:       design,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sess.Headroom < 1 {
		t.Error("headroom")
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if mgr.Active() != 0 {
		t.Error("session not auto-released")
	}
}

func rmsRegistryForStream(t *testing.T) *Registry {
	t.Helper()
	n, err := NewNode("EdgeNode")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddRPE("XC5VLX330T"); err != nil {
		t.Fatal(err)
	}
	reg := rms.NewRegistry()
	if err := reg.AddNode(n); err != nil {
		t.Fatal(err)
	}
	return reg
}

// ExampleParseApp demonstrates the paper's Eq. 4 application expression.
func ExampleParseApp() {
	prog, err := ParseApp("App{Seq(T2), Par(T4, T1, T7), Seq, (T5, T10)}")
	if err != nil {
		panic(err)
	}
	fmt.Println(prog)
	fmt.Println(prog.Plan())
	// Output:
	// App{Seq(T2), Par(T4,T1,T7), Seq(T5,T10)}
	// [[T2] [T4 T1 T7] [T5] [T10]]
}

// TestFacadeNamesExercised holds the facade to the names the repository
// exercises. Every exported name in reconvirt.go must appear as
// reconvirt.X in examples/, cmd/ or a root test file, or as a bare
// identifier in a package-reconvirt test. Struct field keys and the
// selected name of any other selector are not uses.
func TestFacadeNamesExercised(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "reconvirt.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var exported []string
	for _, d := range facade.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				exported = append(exported, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						exported = append(exported, s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							exported = append(exported, n.Name)
						}
					}
				}
			}
		}
	}

	files, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"examples", "cmd"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if !d.IsDir() && strings.HasSuffix(path, ".go") {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	used := map[string]bool{}
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		markFacadeUses(f, used)
	}

	var unused []string
	for _, name := range exported {
		if !used[name] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("%d of %d facade names are exercised nowhere; delete them or use them:\n%s",
			len(unused), len(exported), strings.Join(unused, "\n"))
	}
}

// markFacadeUses records the facade names f uses: reconvirt.X selectors
// in a file that imports the facade, and bare identifiers in a
// package-reconvirt file.
func markFacadeUses(f *ast.File, used map[string]bool) {
	if f.Name.Name == "reconvirt" {
		notUses := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				notUses[n.Sel] = true
			case *ast.CompositeLit:
				for _, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok {
							notUses[key] = true
						}
					}
				}
			case *ast.Ident:
				if !notUses[n] {
					used[n.Name] = true
				}
			}
			return true
		})
		return
	}
	for _, imp := range f.Imports {
		if imp.Path.Value != `"repro"` {
			continue
		}
		local := "reconvirt"
		if imp.Name != nil {
			local = imp.Name.Name
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
}
