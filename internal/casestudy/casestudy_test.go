package casestudy

import (
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/bio"
	"repro/internal/hdl"
	"repro/internal/sim"
)

func TestBuildNodesMatchesFig5(t *testing.T) {
	reg, err := BuildNodes()
	if err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 3 {
		t.Fatalf("nodes = %d, want 3", reg.Len())
	}
	n0, _ := reg.Node("Node0")
	if len(n0.GPPs()) != 2 || len(n0.RPEs()) != 2 {
		t.Errorf("Node0 has %d GPPs / %d RPEs, want 2/2", len(n0.GPPs()), len(n0.RPEs()))
	}
	n1, _ := reg.Node("Node1")
	if len(n1.GPPs()) != 1 || len(n1.RPEs()) != 2 {
		t.Errorf("Node1 has %d GPPs / %d RPEs, want 1/2", len(n1.GPPs()), len(n1.RPEs()))
	}
	n2, _ := reg.Node("Node2")
	if len(n2.GPPs()) != 0 || len(n2.RPEs()) != 1 {
		t.Errorf("Node2 has %d GPPs / %d RPEs, want 0/1", len(n2.GPPs()), len(n2.RPEs()))
	}
	// "RPE0 and RPE1 in Node1 and RPE0 in Node2 all contain Virtex-5 type
	// devices with more than 24,000 slices."
	for _, e := range append(n1.RPEs(), n2.RPEs()...) {
		dev := e.Fabric.Device()
		if dev.Family != "Virtex-5" || dev.Slices < 24000 {
			t.Errorf("%s: %s (%d slices) violates the paper's Fig. 5 text", e.ID, dev.FPGACaps.Device, dev.Slices)
		}
	}
	// Fresh RPEs must be idle and unconfigured (State0/State1 in Fig. 5).
	for _, e := range n0.RPEs() {
		st := e.Fabric.State()
		if len(st.Configurations) != 0 || st.BusyRegions != 0 {
			t.Errorf("%s not idle/unconfigured: %+v", e.ID, st)
		}
	}
}

func TestTasksMatchFig6(t *testing.T) {
	tasks, err := Tasks()
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 4 {
		t.Fatalf("tasks = %d", len(tasks))
	}
	if tasks[1].ExecReq.Design.Name != "malign-core" {
		t.Errorf("Task1 design = %s", tasks[1].ExecReq.Design.Name)
	}
	if tasks[2].ExecReq.Design.Name != "pairalign-core" {
		t.Errorf("Task2 design = %s", tasks[2].ExecReq.Design.Name)
	}
	if tasks[3].ExecReq.Bitstream.Device != "XC6VLX365T" {
		t.Errorf("Task3 device = %s", tasks[3].ExecReq.Bitstream.Device)
	}
}

// TestTableIIExactReproduction is the headline T2 experiment: the
// matchmaker must regenerate the paper's Table II rows exactly.
func TestTableIIExactReproduction(t *testing.T) {
	rows, err := TableII()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{
		"Task0": {"GPP0 <-> Node0", "GPP1 <-> Node0", "GPP0 <-> Node1"},
		"Task1": {"RPE0 <-> Node1", "RPE1 <-> Node1", "RPE0 <-> Node2"},
		"Task2": {"RPE1 <-> Node1", "RPE0 <-> Node2"},
		"Task3": {"RPE0 <-> Node0"},
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		exp, ok := want[row.Task]
		if !ok {
			t.Errorf("unexpected row %s", row.Task)
			continue
		}
		if len(row.Mappings) != len(exp) {
			t.Errorf("%s mappings = %v, want %v", row.Task, row.Mappings, exp)
			continue
		}
		for i := range exp {
			if row.Mappings[i] != exp[i] {
				t.Errorf("%s mapping %d = %s, want %s", row.Task, i, row.Mappings[i], exp[i])
			}
		}
		if row.Levels == "" {
			t.Errorf("%s has no abstraction levels", row.Task)
		}
	}
	out := FormatTableII(rows)
	if !strings.Contains(out, "RPE0 <-> Node2") {
		t.Errorf("formatted table missing content:\n%s", out)
	}
}

func TestRunFig10SmallWorkload(t *testing.T) {
	// A reduced family keeps the test fast while preserving the shape.
	opts := bio.FamilyOptions{Count: 14, Length: 100, SubstitutionRate: 0.15, IndelRate: 0.02}
	res, err := RunFig10(7, opts)
	if err != nil {
		t.Fatal(err)
	}
	pair, mal := fig10Shares(t, 7, opts)
	if pair < 55 {
		t.Errorf("pairalign share = %.1f%%, want dominant", pair)
	}
	if mal <= 0 || mal >= pair {
		t.Errorf("malign share = %.1f%% vs pairalign %.1f%%", mal, pair)
	}
	if len(res.Top) < 8 {
		t.Errorf("top kernels = %d, want ≥8 for a top-10 figure", len(res.Top))
	}
	if res.PairalignArea.Slices != 30790 && (res.PairalignArea.Slices < 30700 || res.PairalignArea.Slices > 30900) {
		t.Errorf("pairalign area = %d, want ≈30,790", res.PairalignArea.Slices)
	}
	if res.MalignArea.Slices < 18600 || res.MalignArea.Slices > 18800 {
		t.Errorf("malign area = %d, want ≈18,707", res.MalignArea.Slices)
	}
	if res.Columns < 100 {
		t.Errorf("alignment columns = %d", res.Columns)
	}
}

// fig10Shares returns pairalign's and malign's cumulative shares of
// RunFig10's profile, in percent. The profiler reads the wall clock, so
// a GC cycle or a preemption inflates whichever kernel it lands in. The
// collector is held off while the runs are timed. Preemption only ever
// adds time, so each kernel's self time is its minimum over several
// runs, and a stage's cumulative time sums the self times of the
// kernels it reaches in the call graph.
func fig10Shares(t *testing.T, seed uint64, opts bio.FamilyOptions) (pair, mal float64) {
	t.Helper()
	generated, err := bio.GenerateFamily(sim.NewRNG(seed), opts)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 5
	self := make(map[string]time.Duration)
	callees := make(map[string][]string)
	for i := 0; i < runs; i++ {
		prof, _, err := profileFig10(generated)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range prof.Flat() {
			if d, ok := self[l.Name]; !ok || l.Self < d {
				self[l.Name] = l.Self
			}
		}
		if i == 0 {
			for _, e := range prof.CallGraph() {
				callees[e.Caller] = append(callees[e.Caller], e.Callee)
			}
		}
	}
	var total time.Duration
	for _, d := range self {
		total += d
	}
	if total <= 0 {
		t.Fatal("profiler recorded nothing")
	}
	var cum func(name string) time.Duration
	cum = func(name string) time.Duration {
		d := self[name]
		for _, c := range callees[name] {
			d += cum(c)
		}
		return d
	}
	return 100 * float64(cum("pairalign")) / float64(total), 100 * float64(cum("malign")) / float64(total)
}

func TestProviderSupportsGridFamilies(t *testing.T) {
	tc, err := hdl.DefaultToolchain()
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{"Virtex-4", "Virtex-5", "Virtex-6"} {
		if !tc.Supports(fam) {
			t.Errorf("provider missing %s support", fam)
		}
	}
}

func TestFig10WorkloadScale(t *testing.T) {
	opts := Fig10Workload()
	// The published profile needs the quadratic pair stage to dominate:
	// a few dozen sequences of a couple hundred residues.
	if opts.Count < 30 || opts.Length < 150 {
		t.Errorf("Fig. 10 workload too small: %+v", opts)
	}
	if opts.SubstitutionRate <= 0 || opts.IndelRate <= 0 {
		t.Errorf("mutation rates unset: %+v", opts)
	}
}
