package bio

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TracedSequence is a generated sequence that remembers, for every
// residue, which ancestor position it descends from (-1 for insertions).
// The traces define a ground-truth alignment: residues from the same
// ancestor position belong in the same column.
type TracedSequence struct {
	Seq Sequence
	// AncestorPos has one entry per residue.
	AncestorPos []int
}

// GenerateFamilyTraced produces a synthetic homologous family together
// with its ground-truth coordinates, for measuring aligner accuracy.
// The mutation process matches GenerateFamily's.
func GenerateFamilyTraced(rng *sim.RNG, opt FamilyOptions) ([]TracedSequence, error) {
	if opt.Count < 2 {
		return nil, fmt.Errorf("bio: family needs ≥2 sequences, got %d", opt.Count)
	}
	if opt.Length < 10 {
		return nil, fmt.Errorf("bio: family length %d too short", opt.Length)
	}
	if opt.SubstitutionRate < 0 || opt.SubstitutionRate > 1 || opt.IndelRate < 0 || opt.IndelRate > 0.5 {
		return nil, fmt.Errorf("bio: implausible mutation rates (%g, %g)", opt.SubstitutionRate, opt.IndelRate)
	}
	ancestor := make([]byte, opt.Length)
	for i := range ancestor {
		ancestor[i] = Alphabet[rng.Intn(AlphabetSize)]
	}
	out := make([]TracedSequence, opt.Count)
	for s := 0; s < opt.Count; s++ {
		var b strings.Builder
		var pos []int
		for i := 0; i < len(ancestor); i++ {
			r := rng.Float64()
			switch {
			case r < opt.IndelRate/2:
				// deletion
			case r < opt.IndelRate:
				b.WriteByte(Alphabet[rng.Intn(AlphabetSize)])
				pos = append(pos, -1)
				b.WriteByte(ancestor[i])
				pos = append(pos, i)
			case r < opt.IndelRate+opt.SubstitutionRate:
				b.WriteByte(Alphabet[rng.Intn(AlphabetSize)])
				pos = append(pos, i)
			default:
				b.WriteByte(ancestor[i])
				pos = append(pos, i)
			}
		}
		seq := b.String()
		if len(seq) < 2 {
			seq = string(ancestor[:2])
			pos = []int{0, 1}
		}
		out[s] = TracedSequence{
			Seq:         Sequence{ID: fmt.Sprintf("seq%03d", s), Residues: seq},
			AncestorPos: pos,
		}
	}
	return out, nil
}

// Sequences strips the traces.
func Sequences(traced []TracedSequence) []Sequence {
	out := make([]Sequence, len(traced))
	for i, t := range traced {
		out[i] = t.Seq
	}
	return out
}

// AlignmentAccuracy scores a finished alignment against the ground truth:
// the fraction of reference residue pairs (two residues descending from
// the same ancestor position) that the alignment places in the same
// column — the standard SP (sum-of-pairs) accuracy of MSA benchmarking.
func AlignmentAccuracy(aligned []Sequence, truth []TracedSequence) (float64, error) {
	if len(aligned) != len(truth) {
		return 0, fmt.Errorf("bio: %d aligned rows vs %d traced sequences", len(aligned), len(truth))
	}
	byID := make(map[string]TracedSequence, len(truth))
	for _, tr := range truth {
		byID[tr.Seq.ID] = tr
	}
	// For every row, map alignment columns to ancestor positions.
	cols := 0
	colPos := make([][]int, len(aligned)) // per row, per column: ancestor pos or -2 for gap
	for r, row := range aligned {
		tr, ok := byID[row.ID]
		if !ok {
			return 0, fmt.Errorf("bio: aligned row %s has no trace", row.ID)
		}
		if Ungap(row.Residues) != tr.Seq.Residues {
			return 0, fmt.Errorf("bio: aligned row %s does not match its sequence", row.ID)
		}
		if r == 0 {
			cols = len(row.Residues)
		} else if len(row.Residues) != cols {
			return 0, fmt.Errorf("bio: ragged alignment")
		}
		mapped := make([]int, cols)
		residue := 0
		for c := 0; c < cols; c++ {
			if row.Residues[c] == '-' {
				mapped[c] = -2
				continue
			}
			mapped[c] = tr.AncestorPos[residue]
			residue++
		}
		colPos[r] = mapped
	}
	// Count reference pairs and recovered pairs.
	var refPairs, hitPairs int
	for i := 0; i < len(aligned); i++ {
		for j := i + 1; j < len(aligned); j++ {
			ti, tj := byID[aligned[i].ID], byID[aligned[j].ID]
			// Reference pairs: ancestor positions present in both.
			present := make(map[int]bool, len(ti.AncestorPos))
			for _, p := range ti.AncestorPos {
				if p >= 0 {
					present[p] = true
				}
			}
			for _, p := range tj.AncestorPos {
				if p >= 0 && present[p] {
					refPairs++
				}
			}
			// Recovered pairs: same column, same ancestor position.
			for c := 0; c < cols; c++ {
				pi, pj := colPos[i][c], colPos[j][c]
				if pi >= 0 && pi == pj {
					hitPairs++
				}
			}
		}
	}
	if refPairs == 0 {
		return 0, fmt.Errorf("bio: no reference pairs (unrelated sequences?)")
	}
	return float64(hitPairs) / float64(refPairs), nil
}

func tracedFamily(t *testing.T, seed uint64, opt FamilyOptions) []TracedSequence {
	t.Helper()
	traced, err := GenerateFamilyTraced(sim.NewRNG(seed), opt)
	if err != nil {
		t.Fatal(err)
	}
	return traced
}

func TestTracedFamilyCoordinatesConsistent(t *testing.T) {
	traced := tracedFamily(t, 31, FamilyOptions{Count: 10, Length: 120, SubstitutionRate: 0.15, IndelRate: 0.03})
	for _, tr := range traced {
		if len(tr.AncestorPos) != tr.Seq.Len() {
			t.Fatalf("%s: %d positions for %d residues", tr.Seq.ID, len(tr.AncestorPos), tr.Seq.Len())
		}
		// Ancestor positions are strictly increasing over non-insertions.
		last := -1
		for _, p := range tr.AncestorPos {
			if p == -1 {
				continue
			}
			if p <= last {
				t.Fatalf("%s: ancestor positions not increasing", tr.Seq.ID)
			}
			last = p
		}
		if err := tr.Seq.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	seqs := Sequences(traced)
	if len(seqs) != len(traced) || seqs[0].ID != traced[0].Seq.ID {
		t.Error("Sequences helper broken")
	}
}

func TestAlignerRecoversReferenceAlignment(t *testing.T) {
	// Moderate divergence: the progressive aligner must recover the large
	// majority of ground-truth residue pairs.
	opt := FamilyOptions{Count: 12, Length: 150, SubstitutionRate: 0.15, IndelRate: 0.02}
	traced := tracedFamily(t, 33, opt)
	res, err := Align(Sequences(traced), nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	acc, err := AlignmentAccuracy(res.Aligned, traced)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.9 {
		t.Errorf("alignment accuracy = %.3f, want ≥0.9 at moderate divergence", acc)
	}
	if acc > 1.0+1e-9 {
		t.Errorf("accuracy %.3f exceeds 1", acc)
	}
}

func TestAccuracyDegradesWithDivergence(t *testing.T) {
	opt := FamilyOptions{Count: 8, Length: 120, SubstitutionRate: 0.1, IndelRate: 0.01}
	easy := tracedFamily(t, 35, opt)
	opt.SubstitutionRate = 0.55
	opt.IndelRate = 0.08
	hard := tracedFamily(t, 35, opt)

	run := func(traced []TracedSequence) float64 {
		res, err := Align(Sequences(traced), nil, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		acc, err := AlignmentAccuracy(res.Aligned, traced)
		if err != nil {
			t.Fatal(err)
		}
		return acc
	}
	accEasy, accHard := run(easy), run(hard)
	if accEasy <= accHard {
		t.Errorf("accuracy should degrade with divergence: easy %.3f vs hard %.3f", accEasy, accHard)
	}
}

func TestAlignmentAccuracyValidation(t *testing.T) {
	traced := tracedFamily(t, 36, FamilyOptions{Count: 3, Length: 60, SubstitutionRate: 0.1, IndelRate: 0.01})
	res, err := Align(Sequences(traced), nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AlignmentAccuracy(res.Aligned[:2], traced); err == nil {
		t.Error("row-count mismatch accepted")
	}
	renamed := append([]Sequence(nil), res.Aligned...)
	renamed[0].ID = "ghost"
	if _, err := AlignmentAccuracy(renamed, traced); err == nil {
		t.Error("unknown row accepted")
	}
	corrupted := append([]Sequence(nil), res.Aligned...)
	corrupted[0].Residues = corrupted[1].Residues
	if _, err := AlignmentAccuracy(corrupted, traced); err == nil {
		t.Error("corrupted row accepted")
	}
}

func TestGenerateFamilyTracedValidation(t *testing.T) {
	rng := sim.NewRNG(1)
	if _, err := GenerateFamilyTraced(rng, FamilyOptions{Count: 1, Length: 100}); err == nil {
		t.Error("single-sequence family accepted")
	}
	if _, err := GenerateFamilyTraced(rng, FamilyOptions{Count: 3, Length: 2}); err == nil {
		t.Error("tiny length accepted")
	}
}
