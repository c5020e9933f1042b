package bio

import (
	"testing"
	"testing/quick"

	"repro/internal/profiler"
	"repro/internal/sim"
)

func TestIdenticalSequencesAlignPerfectly(t *testing.T) {
	s := Sequence{ID: "a", Residues: "ARNDCQEGHILK"}
	s2 := Sequence{ID: "b", Residues: s.Residues}
	res, err := PairAlign(s, s2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Identity != 1 {
		t.Errorf("identity = %v, want 1", res.Identity)
	}
	if res.AlignedA != s.Residues || res.AlignedB != s.Residues {
		t.Errorf("alignment introduced gaps: %q / %q", res.AlignedA, res.AlignedB)
	}
	// Score should be the sum of diagonal BLOSUM entries.
	want := 0
	for i := 0; i < len(s.Residues); i++ {
		want += Score(s.Residues[i], s.Residues[i])
	}
	if res.Score != want {
		t.Errorf("score = %d, want %d", res.Score, want)
	}
	if res.Distance() != 0 {
		t.Errorf("distance = %v", res.Distance())
	}
}

func TestSingleDeletionFindsGap(t *testing.T) {
	a := Sequence{ID: "a", Residues: "ARNDCQEGHILK"}
	b := Sequence{ID: "b", Residues: "ARNDCEGHILK"} // Q removed
	res, err := PairAlign(a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AlignedA) != len(res.AlignedB) {
		t.Fatal("aligned lengths differ")
	}
	if Ungap(res.AlignedA) != a.Residues || Ungap(res.AlignedB) != b.Residues {
		t.Error("alignment corrupted residues")
	}
	if res.AlignedB != "ARNDC-EGHILK" {
		t.Errorf("alignedB = %q, want gap at the deleted Q", res.AlignedB)
	}
	if res.Identity < 0.9 {
		t.Errorf("identity = %v", res.Identity)
	}
}

func TestAffineGapsPreferOneLongGap(t *testing.T) {
	// With affine penalties one 3-gap must beat three 1-gaps.
	a := Sequence{ID: "a", Residues: "WWWWAAAWWWW"}
	b := Sequence{ID: "b", Residues: "WWWWWWWW"}
	res, err := PairAlign(a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	gapRuns := 0
	inGap := false
	for i := 0; i < len(res.AlignedB); i++ {
		if res.AlignedB[i] == '-' {
			if !inGap {
				gapRuns++
				inGap = true
			}
		} else {
			inGap = false
		}
	}
	if gapRuns != 1 {
		t.Errorf("gap runs = %d, want 1 contiguous gap (affine)\n%s\n%s", gapRuns, res.AlignedA, res.AlignedB)
	}
}

func TestPairAlignValidatesInput(t *testing.T) {
	good := Sequence{ID: "a", Residues: "ARNDC"}
	if _, err := PairAlign(Sequence{}, good, nil); err == nil {
		t.Error("invalid first sequence accepted")
	}
	if _, err := PairAlign(good, Sequence{ID: "b"}, nil); err == nil {
		t.Error("invalid second sequence accepted")
	}
}

func TestPairAlignProperties(t *testing.T) {
	rng := sim.NewRNG(9)
	f := func(seed uint64) bool {
		r := rng.Split(seed)
		la := 5 + r.Intn(60)
		lb := 5 + r.Intn(60)
		mk := func(n int) string {
			b := make([]byte, n)
			for i := range b {
				b[i] = Alphabet[r.Intn(AlphabetSize)]
			}
			return string(b)
		}
		a := Sequence{ID: "a", Residues: mk(la)}
		b := Sequence{ID: "b", Residues: mk(lb)}
		res, err := PairAlign(a, b, nil)
		if err != nil {
			return false
		}
		// Invariants: equal aligned lengths, residues preserved in order,
		// identity within [0,1], no column with two gaps.
		if len(res.AlignedA) != len(res.AlignedB) {
			return false
		}
		if Ungap(res.AlignedA) != a.Residues || Ungap(res.AlignedB) != b.Residues {
			return false
		}
		if res.Identity < 0 || res.Identity > 1 {
			return false
		}
		for i := 0; i < len(res.AlignedA); i++ {
			if res.AlignedA[i] == '-' && res.AlignedB[i] == '-' {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPairAlignSymmetricScore(t *testing.T) {
	r := sim.NewRNG(11)
	mk := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = Alphabet[r.Intn(AlphabetSize)]
		}
		return string(b)
	}
	a := Sequence{ID: "a", Residues: mk(40)}
	b := Sequence{ID: "b", Residues: mk(35)}
	ab, err := PairAlign(a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	ba, err := PairAlign(b, a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ab.Score != ba.Score {
		t.Errorf("score asymmetry: %d vs %d", ab.Score, ba.Score)
	}
	if ab.Identity != ba.Identity {
		t.Errorf("identity asymmetry: %v vs %v", ab.Identity, ba.Identity)
	}
}

func TestPairAlignAllMatrixProperties(t *testing.T) {
	rng := sim.NewRNG(5)
	seqs, err := GenerateFamily(rng, FamilyOptions{Count: 6, Length: 60, SubstitutionRate: 0.2, IndelRate: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	d, err := PairAlignAll(seqs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d {
		if d[i][i] != 0 {
			t.Errorf("self distance d[%d][%d] = %v", i, i, d[i][i])
		}
		for j := range d {
			if d[i][j] != d[j][i] {
				t.Errorf("asymmetry at (%d,%d)", i, j)
			}
			if d[i][j] < 0 || d[i][j] > 1 {
				t.Errorf("distance out of range: %v", d[i][j])
			}
		}
	}
}

func TestPairAlignAllValidation(t *testing.T) {
	if _, err := PairAlignAll(nil, nil); err == nil {
		t.Error("empty input accepted")
	}
	one := []Sequence{{ID: "a", Residues: "ARNDC"}}
	if _, err := PairAlignAll(one, nil); err == nil {
		t.Error("single sequence accepted")
	}
	two := []Sequence{{ID: "a", Residues: "ARNDC"}, {ID: "b"}}
	if _, err := PairAlignAll(two, nil); err == nil {
		t.Error("invalid member accepted")
	}
}

// PairAlign globally aligns two sequences with affine gap penalties.
func PairAlign(a, b Sequence, prof *profiler.Profiler) (PairResult, error) {
	if err := a.Validate(); err != nil {
		return PairResult{}, err
	}
	if err := b.Validate(); err != nil {
		return PairResult{}, err
	}
	var al aligner
	return al.pair(a, b, prof), nil
}
