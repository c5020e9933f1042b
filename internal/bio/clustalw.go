package bio

import (
	"fmt"

	"repro/internal/profiler"
)

// GuideTreeMethod selects the guide-tree algorithm.
type GuideTreeMethod string

// Guide-tree methods.
const (
	GuideNJ    GuideTreeMethod = "nj"
	GuideUPGMA GuideTreeMethod = "upgma"
)

// Options configure a ClustalW-style run.
type Options struct {
	GuideTree GuideTreeMethod
	// Kimura applies the Kimura multiple-substitution correction to the
	// pairwise distances before tree construction, as ClustalW does for
	// divergent inputs. Off by default so distances stay directly
	// interpretable as 1-identity.
	Kimura bool
}

// DefaultOptions use neighbour joining, as ClustalW does.
func DefaultOptions() Options { return Options{GuideTree: GuideNJ} }

// Result is a completed multiple-sequence alignment.
type Result struct {
	// Aligned holds the input sequences with gaps inserted, all equal
	// length, in input order.
	Aligned []Sequence
	// Distances is the pairwise distance matrix from the pairalign stage.
	Distances [][]float64
	// Tree is the guide tree.
	Tree *TreeNode
	// MeanIdentity is the average pairwise identity of the input.
	MeanIdentity float64
}

// Columns returns the alignment length.
func (r *Result) Columns() int {
	if len(r.Aligned) == 0 {
		return 0
	}
	return len(r.Aligned[0].Residues)
}

// Align runs the full ClustalW pipeline: pairalign (all-pairs distances) →
// guide tree → malign (progressive alignment). Pass a profiler to collect
// the Fig. 10 kernel profile, or nil to run unprofiled.
func Align(seqs []Sequence, prof *profiler.Profiler, opt Options) (*Result, error) {
	if len(seqs) < 2 {
		return nil, fmt.Errorf("bio: alignment needs ≥2 sequences, got %d", len(seqs))
	}
	ids := make(map[string]bool, len(seqs))
	for _, s := range seqs {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		if ids[s.ID] {
			return nil, fmt.Errorf("bio: duplicate sequence ID %s", s.ID)
		}
		ids[s.ID] = true
	}

	dist, err := PairAlignAll(seqs, prof)
	if err != nil {
		return nil, err
	}
	treeDist := dist
	if opt.Kimura {
		treeDist = KimuraMatrix(dist)
	}

	var tree *TreeNode
	switch opt.GuideTree {
	case GuideNJ, "":
		tree, err = NeighborJoining(treeDist, prof)
	case GuideUPGMA:
		tree, err = UPGMA(treeDist, prof)
	default:
		return nil, fmt.Errorf("bio: unknown guide-tree method %q", opt.GuideTree)
	}
	if err != nil {
		return nil, err
	}

	aligned, err := MAlign(seqs, tree, prof)
	if err != nil {
		return nil, err
	}

	var sum float64
	var pairs int
	for i := range dist {
		for j := i + 1; j < len(dist); j++ {
			sum += 1 - dist[i][j]
			pairs++
		}
	}
	res := &Result{Aligned: aligned, Distances: dist, Tree: tree}
	if pairs > 0 {
		res.MeanIdentity = sum / float64(pairs)
	}
	return res, nil
}

// SumOfPairsScore scores a finished alignment column-by-column with BLOSUM
// substitution scores and affine gap penalties — the standard MSA quality
// measure, used to compare guide-tree methods.
func SumOfPairsScore(aligned []Sequence) (int, error) {
	if len(aligned) < 2 {
		return 0, fmt.Errorf("bio: sum-of-pairs needs ≥2 rows")
	}
	cols := len(aligned[0].Residues)
	for _, s := range aligned {
		if len(s.Residues) != cols {
			return 0, fmt.Errorf("bio: row %s has %d columns, want %d", s.ID, len(s.Residues), cols)
		}
	}
	total := 0
	for i := 0; i < len(aligned); i++ {
		for j := i + 1; j < len(aligned); j++ {
			a, b := aligned[i].Residues, aligned[j].Residues
			inGap := false
			for k := 0; k < cols; k++ {
				ga, gb := a[k] == '-', b[k] == '-'
				switch {
				case ga && gb:
					// shared gap: no charge
					inGap = false
				case ga || gb:
					if inGap {
						total -= GapExtend
					} else {
						total -= GapOpen + GapExtend
						inGap = true
					}
				default:
					total += Score(a[k], b[k])
					inGap = false
				}
			}
		}
	}
	return total, nil
}
