package bio

import (
	"fmt"
	"math"

	"repro/internal/profiler"
)

// negInf is a safely addable minus infinity for DP scores.
const negInf = math.MinInt32 / 4

// traceback operation codes.
const (
	tbM  byte = iota // diagonal: residue vs residue
	tbIx             // up: residue of A vs gap
	tbIy             // left: gap vs residue of B
)

// PairResult is one pairwise global alignment.
type PairResult struct {
	AlignedA string
	AlignedB string
	Score    int
	// Identity is the fraction of matched residue pairs over the shorter
	// sequence length, ClustalW's percent-identity measure.
	Identity float64
}

// Distance returns the ClustalW pairwise distance 1 - identity.
func (r PairResult) Distance() float64 { return 1 - r.Identity }

// aligner holds reusable DP buffers so the O(n²) pair loop does not
// reallocate per pair.
type aligner struct {
	m, ix, iy []int32 // score matrices, row-major (la+1)×(lb+1)
	tbm       []byte  // traceback for M: which matrix fed the diagonal move
	tbx       []byte  // traceback for Ix: open (from M) or extend (from Ix)
	tby       []byte  // traceback for Iy
	cols      int
}

func (al *aligner) resize(la, lb int) {
	n := (la + 1) * (lb + 1)
	if cap(al.m) < n {
		al.m = make([]int32, n)
		al.ix = make([]int32, n)
		al.iy = make([]int32, n)
		al.tbm = make([]byte, n)
		al.tbx = make([]byte, n)
		al.tby = make([]byte, n)
	}
	al.m = al.m[:n]
	al.ix = al.ix[:n]
	al.iy = al.iy[:n]
	al.tbm = al.tbm[:n]
	al.tbx = al.tbx[:n]
	al.tby = al.tby[:n]
	al.cols = lb + 1
}

// forwardPass fills the Gotoh affine-gap matrices for global alignment.
// This is the forward_pass kernel of ClustalW's pairalign: the bulk of the
// case study's runtime lives in this triple loop.
func (al *aligner) forwardPass(a, b string, prof *profiler.Profiler) {
	defer prof.Enter("forward_pass")()
	la, lb := len(a), len(b)
	al.resize(la, lb)
	cols := al.cols
	const open = GapOpen + GapExtend
	const ext = GapExtend

	al.m[0] = 0
	al.ix[0] = negInf
	al.iy[0] = negInf
	for i := 1; i <= la; i++ {
		idx := i * cols
		al.m[idx] = negInf
		al.iy[idx] = negInf
		al.ix[idx] = int32(-open - (i-1)*ext)
		al.tbx[idx] = tbIx
	}
	for j := 1; j <= lb; j++ {
		al.m[j] = negInf
		al.ix[j] = negInf
		al.iy[j] = int32(-open - (j-1)*ext)
		al.tby[j] = tbIy
	}
	al.tbx[cols] = tbM // first gap down opens from M[0][0]
	al.tby[1] = tbM

	for i := 1; i <= la; i++ {
		ca := a[i-1]
		row := i * cols
		prev := row - cols
		for j := 1; j <= lb; j++ {
			// M: best predecessor on the diagonal plus substitution.
			dm, dx, dy := al.m[prev+j-1], al.ix[prev+j-1], al.iy[prev+j-1]
			best, op := dm, tbM
			if dx > best {
				best, op = dx, tbIx
			}
			if dy > best {
				best, op = dy, tbIy
			}
			al.m[row+j] = best + int32(Score(ca, b[j-1]))
			al.tbm[row+j] = op

			// Ix: gap in B (move down).
			openScore := al.m[prev+j] - open
			extScore := al.ix[prev+j] - ext
			if openScore >= extScore {
				al.ix[row+j] = openScore
				al.tbx[row+j] = tbM
			} else {
				al.ix[row+j] = extScore
				al.tbx[row+j] = tbIx
			}

			// Iy: gap in A (move right).
			openScore = al.m[row+j-1] - open
			extScore = al.iy[row+j-1] - ext
			if openScore >= extScore {
				al.iy[row+j] = openScore
				al.tby[row+j] = tbM
			} else {
				al.iy[row+j] = extScore
				al.tby[row+j] = tbIy
			}
		}
	}
}

// tracepath walks the traceback matrices from the terminal cell and builds
// the aligned strings — ClustalW's tracepath kernel.
func (al *aligner) tracepath(a, b string, prof *profiler.Profiler) (string, string, int) {
	defer prof.Enter("tracepath")()
	la, lb := len(a), len(b)
	cols := al.cols
	end := la*cols + lb
	state := tbM
	score := al.m[end]
	if al.ix[end] > score {
		state, score = tbIx, al.ix[end]
	}
	if al.iy[end] > score {
		state, score = tbIy, al.iy[end]
	}
	outA := make([]byte, 0, la+lb)
	outB := make([]byte, 0, la+lb)
	i, j := la, lb
	for i > 0 || j > 0 {
		switch {
		case i > 0 && j > 0 && state == tbM:
			next := al.tbm[i*cols+j]
			outA = append(outA, a[i-1])
			outB = append(outB, b[j-1])
			i--
			j--
			state = next
		case i > 0 && (state == tbIx || j == 0):
			next := al.tbx[i*cols+j]
			outA = append(outA, a[i-1])
			outB = append(outB, '-')
			i--
			state = next
		default:
			next := al.tby[i*cols+j]
			outA = append(outA, '-')
			outB = append(outB, b[j-1])
			j--
			state = next
		}
	}
	reverseBytes(outA)
	reverseBytes(outB)
	return string(outA), string(outB), int(score)
}

func reverseBytes(b []byte) {
	for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
		b[i], b[j] = b[j], b[i]
	}
}

// calcScore computes percent identity from an alignment — ClustalW's
// calc_score step that converts alignments to guide-tree distances.
func calcScore(alignedA, alignedB string, la, lb int, prof *profiler.Profiler) float64 {
	defer prof.Enter("calc_score")()
	matches := 0
	for k := 0; k < len(alignedA); k++ {
		if alignedA[k] != '-' && alignedA[k] == alignedB[k] {
			matches++
		}
	}
	den := la
	if lb < den {
		den = lb
	}
	if den == 0 {
		return 0
	}
	return float64(matches) / float64(den)
}

func (al *aligner) pair(a, b Sequence, prof *profiler.Profiler) PairResult {
	al.forwardPass(a.Residues, b.Residues, prof)
	alignedA, alignedB, score := al.tracepath(a.Residues, b.Residues, prof)
	identity := calcScore(alignedA, alignedB, a.Len(), b.Len(), prof)
	return PairResult{AlignedA: alignedA, AlignedB: alignedB, Score: score, Identity: identity}
}

// PairAlignAll runs the pairalign kernel: all-pairs global alignment
// producing the distance matrix that drives guide-tree construction. This
// is the dominant kernel of the case study (≈90 % of ClustalW runtime).
func PairAlignAll(seqs []Sequence, prof *profiler.Profiler) ([][]float64, error) {
	if len(seqs) < 2 {
		return nil, fmt.Errorf("bio: pairalign needs ≥2 sequences, got %d", len(seqs))
	}
	for i := range seqs {
		if err := seqs[i].Validate(); err != nil {
			return nil, err
		}
	}
	defer prof.Enter("pairalign")()
	n := len(seqs)
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	var al aligner
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			res := al.pair(seqs[i], seqs[j], prof)
			d[i][j] = res.Distance()
			d[j][i] = d[i][j]
		}
	}
	return d, nil
}
