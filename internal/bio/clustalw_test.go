package bio

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/profiler"
)

func TestAlignEndToEnd(t *testing.T) {
	seqs := familyFor(t, 21, 10, 100)
	res, err := Align(seqs, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Aligned) != len(seqs) {
		t.Fatalf("aligned rows = %d", len(res.Aligned))
	}
	cols := res.Columns()
	if cols < 100 {
		t.Errorf("alignment columns = %d, shorter than inputs", cols)
	}
	for i, row := range res.Aligned {
		if len(row.Residues) != cols {
			t.Errorf("ragged row %d", i)
		}
		if Ungap(row.Residues) != seqs[i].Residues {
			t.Errorf("row %d corrupted", i)
		}
	}
	if res.MeanIdentity <= 0.3 || res.MeanIdentity > 1 {
		t.Errorf("mean identity = %v", res.MeanIdentity)
	}
	if res.Tree == nil || len(res.Tree.Leaves()) != len(seqs) {
		t.Error("guide tree missing or incomplete")
	}
}

func TestAlignValidation(t *testing.T) {
	if _, err := Align(nil, nil, DefaultOptions()); err == nil {
		t.Error("empty input accepted")
	}
	dup := []Sequence{{ID: "a", Residues: "ARNDC"}, {ID: "a", Residues: "ARNDC"}}
	if _, err := Align(dup, nil, DefaultOptions()); err == nil {
		t.Error("duplicate IDs accepted")
	}
	seqs := []Sequence{{ID: "a", Residues: "ARNDC"}, {ID: "b", Residues: "ARNDC"}}
	if _, err := Align(seqs, nil, Options{GuideTree: "bogus"}); err == nil {
		t.Error("unknown guide-tree method accepted")
	}
}

func TestAlignUPGMAWorksToo(t *testing.T) {
	seqs := familyFor(t, 22, 8, 80)
	res, err := Align(seqs, nil, Options{GuideTree: GuideUPGMA})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Aligned) != len(seqs) {
		t.Error("UPGMA pipeline incomplete")
	}
}

func TestAlignDeterministic(t *testing.T) {
	seqs := familyFor(t, 23, 8, 80)
	r1, err := Align(seqs, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Align(seqs, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Aligned {
		if r1.Aligned[i] != r2.Aligned[i] {
			t.Fatal("alignment not deterministic")
		}
	}
}

func TestProfiledRunShapesLikeFig10(t *testing.T) {
	// The case-study claim: pairalign dominates, malign is second.
	// With a realistic family size the pair stage is quadratic in n while
	// the progressive stage is linear, so the shape is structural.
	//
	// The profiler reads the wall clock, so a GC cycle or a preemption
	// inflates whichever kernel it lands in. The collector is held off
	// while the runs are timed (each run allocates about 5 MB). Preemption
	// only ever adds time, so each kernel's self time is its minimum over
	// several runs, and a stage's cumulative time sums the self times of
	// the kernels it reaches in the call graph.
	seqs := familyFor(t, 99, 16, 120)
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 5
	self := make(map[string]time.Duration)
	callees := make(map[string][]string)
	for i := 0; i < runs; i++ {
		prof := profiler.New()
		if _, err := Align(seqs, prof, DefaultOptions()); err != nil {
			t.Fatal(err)
		}
		flat := prof.Flat()
		if len(flat) < 8 {
			t.Fatalf("expected ≥8 instrumented kernels, got %d", len(flat))
		}
		for _, l := range flat {
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
	pair := 100 * float64(cum("pairalign")) / float64(total)
	mal := 100 * float64(cum("malign")) / float64(total)
	if pair < 60 {
		t.Errorf("pairalign cumulative share = %.1f%%, want dominant (paper: 89.76%%)", pair)
	}
	if mal <= 0 || mal > 35 {
		t.Errorf("malign cumulative share = %.1f%%, want minor but present (paper: 7.79%%)", mal)
	}
	if pair <= mal {
		t.Error("pairalign must dominate malign")
	}
}

func TestSumOfPairsScore(t *testing.T) {
	aligned := []Sequence{
		{ID: "a", Residues: "AR-D"},
		{ID: "b", Residues: "ARND"},
	}
	got, err := SumOfPairsScore(aligned)
	if err != nil {
		t.Fatal(err)
	}
	want := Score('A', 'A') + Score('R', 'R') - (GapOpen + GapExtend) + Score('D', 'D')
	if got != want {
		t.Errorf("SP score = %d, want %d", got, want)
	}
}

func TestSumOfPairsSharedGapFree(t *testing.T) {
	aligned := []Sequence{
		{ID: "a", Residues: "A-R"},
		{ID: "b", Residues: "A-R"},
	}
	got, err := SumOfPairsScore(aligned)
	if err != nil {
		t.Fatal(err)
	}
	want := Score('A', 'A') + Score('R', 'R')
	if got != want {
		t.Errorf("shared gap charged: %d, want %d", got, want)
	}
}

func TestSumOfPairsValidation(t *testing.T) {
	if _, err := SumOfPairsScore(nil); err == nil {
		t.Error("empty alignment accepted")
	}
	ragged := []Sequence{{ID: "a", Residues: "AR"}, {ID: "b", Residues: "A"}}
	if _, err := SumOfPairsScore(ragged); err == nil {
		t.Error("ragged alignment accepted")
	}
}

func TestUngap(t *testing.T) {
	if Ungap("-A-R-") != "AR" {
		t.Errorf("Ungap = %q", Ungap("-A-R-"))
	}
	if Ungap("ARND") != "ARND" {
		t.Error("gap-free string changed")
	}
	if Ungap("") != "" {
		t.Error("empty")
	}
}

func TestAlignSmallestCase(t *testing.T) {
	seqs := []Sequence{
		{ID: "a", Residues: "ARNDCQEGH"},
		{ID: "b", Residues: "ARNDCQEGH"},
	}
	res, err := Align(seqs, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanIdentity != 1 {
		t.Errorf("identical pair identity = %v", res.MeanIdentity)
	}
	if res.Columns() != 9 {
		t.Errorf("columns = %d", res.Columns())
	}
}

func TestAlignWithKimuraCorrection(t *testing.T) {
	seqs := familyFor(t, 24, 8, 80)
	res, err := Align(seqs, nil, Options{GuideTree: GuideNJ, Kimura: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Aligned) != len(seqs) {
		t.Fatal("incomplete alignment")
	}
	for i, row := range res.Aligned {
		if Ungap(row.Residues) != seqs[i].Residues {
			t.Errorf("row %d corrupted", i)
		}
	}
	// Reported distances stay in raw 1-identity form even when the tree
	// used corrected ones.
	for i := range res.Distances {
		for j := range res.Distances[i] {
			if res.Distances[i][j] < 0 || res.Distances[i][j] > 1 {
				t.Fatalf("distance out of raw range: %v", res.Distances[i][j])
			}
		}
	}
}

// Ungap removes gap characters, recovering the original residues.
func Ungap(aligned string) string {
	out := make([]byte, 0, len(aligned))
	for i := 0; i < len(aligned); i++ {
		if aligned[i] != '-' {
			out = append(out, aligned[i])
		}
	}
	return string(out)
}
