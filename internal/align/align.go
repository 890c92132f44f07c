// Package align implements pairwise global sequence alignment: the
// Needleman–Wunsch algorithm used by the paper (§III-C), a Hirschberg
// linear-space variant for long sequences, and the Gotoh affine-gap and
// banded variants of the alignment-algorithm ablation.
//
// Sequences are equivalence-class codes (internal/encode interns each
// linearized IR entry into one uint32 per §III-D class), so every kernel
// decides equivalence with one integer comparison and never touches the
// underlying entries.
package align

// Op classifies one column of an alignment.
type Op int

// Alignment column kinds.
const (
	// OpMatch aligns equivalent elements A[I] and B[J].
	OpMatch Op = iota
	// OpMismatch aligns non-equivalent elements A[I] and B[J].
	OpMismatch
	// OpGapA pairs A[I] with a blank in B.
	OpGapA
	// OpGapB pairs B[J] with a blank in A.
	OpGapB
)

// String returns a one-letter code for the op (M, X, A, B).
func (o Op) String() string {
	switch o {
	case OpMatch:
		return "M"
	case OpMismatch:
		return "X"
	case OpGapA:
		return "A"
	case OpGapB:
		return "B"
	default:
		return "?"
	}
}

// Step is one column of an alignment. I indexes the first sequence and J the
// second; an index is -1 when its side of the column is a blank.
type Step struct {
	Op   Op
	I, J int
}

// Scoring assigns weights to matches, mismatches and gaps. The paper uses a
// standard scheme rewarding matches and equally penalizing mismatches and
// gaps.
type Scoring struct {
	Match    int
	Mismatch int
	Gap      int
}

// DefaultScoring is the paper's scheme: matches rewarded, mismatches and
// gaps equally penalized.
var DefaultScoring = Scoring{Match: 1, Mismatch: -1, Gap: -1}

// CodedFunc is the signature of a global-alignment algorithm. Sequences are
// equivalence-class codes (internal/encode): A[i] and B[j] are equivalent
// exactly when a[i] == b[j], so each dynamic-programming cell costs one
// integer comparison on a flat slice.
type CodedFunc func(a, b []uint32, sc Scoring) []Step

// maxDirectCells bounds the traceback matrix of direct Needleman–Wunsch;
// larger problems are routed to the linear-space Hirschberg algorithm.
const maxDirectCells = 1 << 24 // 16M cells ≈ 16 MiB of direction bytes

// AlignCodes computes an optimal global alignment of two code sequences,
// choosing between direct Needleman–Wunsch and the linear-space Hirschberg
// variant based on problem size.
func AlignCodes(a, b []uint32, sc Scoring) []Step {
	if useDirect(len(a), len(b)) {
		return NeedlemanWunschCodes(a, b, sc)
	}
	return HirschbergCodes(a, b, sc)
}

// useDirect reports whether an n×m problem fits the direct Needleman–Wunsch
// traceback matrix. The bound is checked by division rather than as
// n*m <= maxDirectCells: for very long sequences the product can overflow
// int and wrap to a small (or negative) value, which would route a
// multi-gigabyte problem to the direct kernel. For every non-overflowing
// pair the two forms agree exactly.
func useDirect(n, m int) bool {
	return n == 0 || m == 0 || n <= maxDirectCells/m
}

// Direction codes for the traceback matrix.
const (
	dirDiag byte = iota + 1
	dirUp        // gap in B (consume A)
	dirLeft      // gap in A (consume B)
)

// gapsOnly is the alignment of a against an empty sequence (or of an empty
// sequence against b): one gap column per element.
func gapsOnly(n, m int) []Step {
	steps := make([]Step, 0, n+m)
	for i := 0; i < n; i++ {
		steps = append(steps, Step{Op: OpGapA, I: i, J: -1})
	}
	for j := 0; j < m; j++ {
		steps = append(steps, Step{Op: OpGapB, I: -1, J: j})
	}
	return steps
}

// NeedlemanWunschCodes computes an optimal global alignment with full
// dynamic programming (O(n·m) time and traceback space). Ties break toward
// the diagonal, then up, then left — determinism matters for
// reproducibility.
func NeedlemanWunschCodes(a, b []uint32, sc Scoring) []Step {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return gapsOnly(n, m)
	}

	// Rolling score rows plus a full direction matrix for traceback, all
	// recycled scratch. Every cell the traceback can reach is written below
	// — dirs[0] is the only unwritten cell, and the traceback stops before
	// reading it — so stale pooled contents are harmless.
	prev := getInt32(m + 1)
	cur := getInt32(m + 1)
	dirs := getBytes((n + 1) * (m + 1))

	prev[0] = 0
	for j := 1; j <= m; j++ {
		prev[j] = int32(j * sc.Gap)
		dirs[j] = dirLeft
	}
	mat, mis, gap := int32(sc.Match), int32(sc.Mismatch), int32(sc.Gap)
	for i := 1; i <= n; i++ {
		// pd and left carry prev[j-1] and cur[j-1] in registers, and the
		// re-slicing lets the compiler drop the inner bounds checks.
		row := dirs[i*(m+1):][: m+1 : m+1]
		prevR := prev[: m+1 : m+1]
		curR := cur[: m+1 : m+1]
		ai := a[i-1]
		pd := prevR[0]
		left := int32(i) * gap
		curR[0] = left
		row[0] = dirUp
		for j := 1; j <= m; j++ {
			pj := prevR[j]
			sub := mis
			if ai == b[j-1] {
				sub = mat
			}
			best, dir := pd+sub, dirDiag
			if up := pj + gap; up > best {
				best, dir = up, dirUp
			}
			if lf := left + gap; lf > best {
				best, dir = lf, dirLeft
			}
			curR[j] = best
			row[j] = dir
			pd = pj
			left = best
		}
		prev, cur = cur, prev
	}

	var rev []Step
	i, j := n, m
	for i > 0 || j > 0 {
		switch dirs[i*(m+1)+j] {
		case dirDiag:
			op := OpMismatch
			if a[i-1] == b[j-1] {
				op = OpMatch
			}
			rev = append(rev, Step{Op: op, I: i - 1, J: j - 1})
			i--
			j--
		case dirUp:
			rev = append(rev, Step{Op: OpGapA, I: i - 1, J: -1})
			i--
		case dirLeft:
			rev = append(rev, Step{Op: OpGapB, I: -1, J: j - 1})
			j--
		default:
			panic("align: corrupt traceback")
		}
	}
	putInt32(prev)
	putInt32(cur)
	putBytes(dirs)
	reverseSteps(rev)
	return rev
}

// reverseSteps reverses a traceback in place.
func reverseSteps(s []Step) {
	for x, y := 0, len(s)-1; x < y; x, y = x+1, y-1 {
		s[x], s[y] = s[y], s[x]
	}
}

// Score computes the total score of an alignment under sc.
func Score(steps []Step, sc Scoring) int {
	total := 0
	for _, s := range steps {
		switch s.Op {
		case OpMatch:
			total += sc.Match
		case OpMismatch:
			total += sc.Mismatch
		default:
			total += sc.Gap
		}
	}
	return total
}

// DecomposeMismatches rewrites every mismatch column as a pair of gap
// columns (A[i] vs blank, then blank vs B[j]). When the mismatch penalty
// does not undercut two gaps, the result has equal score, and it simplifies
// merged-code generation: every aligned column is then either an exact
// match or code unique to one input.
func DecomposeMismatches(steps []Step) []Step {
	out := make([]Step, 0, len(steps))
	for _, s := range steps {
		if s.Op == OpMismatch {
			out = append(out, Step{Op: OpGapA, I: s.I, J: -1}, Step{Op: OpGapB, I: -1, J: s.J})
			continue
		}
		out = append(out, s)
	}
	return out
}

// Validate checks structural invariants of an alignment of sequences with
// lengths n and m: indices on each side appear exactly once, in increasing
// order, and every column consumes at least one element. It returns false
// if any invariant is violated.
func Validate(steps []Step, n, m int) bool {
	wantI, wantJ := 0, 0
	for _, s := range steps {
		switch s.Op {
		case OpMatch, OpMismatch:
			if s.I != wantI || s.J != wantJ {
				return false
			}
			wantI++
			wantJ++
		case OpGapA:
			if s.I != wantI || s.J != -1 {
				return false
			}
			wantI++
		case OpGapB:
			if s.J != wantJ || s.I != -1 {
				return false
			}
			wantJ++
		default:
			return false
		}
	}
	return wantI == n && wantJ == m
}
