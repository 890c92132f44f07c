package align

// AffineScoring scores alignments with affine gap penalties: opening a gap
// costs GapOpen+GapExtend, each further blank in the same gap costs only
// GapExtend. Affine penalties concentrate divergent code into fewer,
// longer runs — for function merging that means fewer func_id diamonds for
// the same amount of unmerged code (the paper's §III-C notes alternative
// algorithms trade alignment quality differently).
type AffineScoring struct {
	Match     int
	Mismatch  int
	GapOpen   int // additional cost for the first blank of a run
	GapExtend int // cost per blank
}

// DefaultAffineScoring mirrors DefaultScoring but discourages scattered
// gaps.
var DefaultAffineScoring = AffineScoring{Match: 1, Mismatch: -1, GapOpen: -1, GapExtend: -1}

// GotohCodes computes an optimal global alignment under affine gap penalties
// using Gotoh's three-matrix dynamic program, O(n·m) time and traceback
// space. On ties a gap opening is preferred over an extension.
func GotohCodes(a, b []uint32, sc AffineScoring) []Step {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return gapsOnly(n, m)
	}

	const negInf = int32(-1 << 29)
	w := m + 1
	// M[i][j]: best score ending in a match/mismatch column.
	// X[i][j]: best score ending in a gap in B (consuming A[i-1]).
	// Y[i][j]: best score ending in a gap in A (consuming B[j-1]).
	// All six matrices are recycled scratch: the score matrices are fully
	// written (borders in the init loops, the rest in the DP loop), and the
	// traceback never reads the unwritten border cells of tbM because no
	// optimal path enters a negInf score cell.
	M := getInt32((n + 1) * w)
	X := getInt32((n + 1) * w)
	Y := getInt32((n + 1) * w)
	// Traceback: for each matrix, where did the value come from.
	tbM := getBytes((n + 1) * w) // 1=M, 2=X, 3=Y (diagonal predecessor)
	tbX := getBytes((n + 1) * w) // 1=M-open, 2=X-extend
	tbY := getBytes((n + 1) * w) // 1=M-open, 3=Y-extend
	at := func(i, j int) int { return i*w + j }

	open := int32(sc.GapOpen + sc.GapExtend)
	ext := int32(sc.GapExtend)

	M[at(0, 0)] = 0
	X[at(0, 0)] = negInf
	Y[at(0, 0)] = negInf
	for i := 1; i <= n; i++ {
		M[at(i, 0)] = negInf
		Y[at(i, 0)] = negInf
		X[at(i, 0)] = open + int32(i-1)*ext
		tbX[at(i, 0)] = 2
	}
	for j := 1; j <= m; j++ {
		M[at(0, j)] = negInf
		X[at(0, j)] = negInf
		Y[at(0, j)] = open + int32(j-1)*ext
		tbY[at(0, j)] = 3
	}

	mat, mis := int32(sc.Match), int32(sc.Mismatch)
	for i := 1; i <= n; i++ {
		ai := a[i-1]
		for j := 1; j <= m; j++ {
			sub := mis
			if ai == b[j-1] {
				sub = mat
			}
			// M: diagonal step from the best of the three.
			bm, src := M[at(i-1, j-1)], byte(1)
			if X[at(i-1, j-1)] > bm {
				bm, src = X[at(i-1, j-1)], 2
			}
			if Y[at(i-1, j-1)] > bm {
				bm, src = Y[at(i-1, j-1)], 3
			}
			M[at(i, j)] = bm + sub
			tbM[at(i, j)] = src

			// X: consume A[i-1] against a blank.
			xo := M[at(i-1, j)] + open
			xe := X[at(i-1, j)] + ext
			if xo >= xe {
				X[at(i, j)] = xo
				tbX[at(i, j)] = 1
			} else {
				X[at(i, j)] = xe
				tbX[at(i, j)] = 2
			}

			// Y: consume B[j-1] against a blank.
			yo := M[at(i, j-1)] + open
			ye := Y[at(i, j-1)] + ext
			if yo >= ye {
				Y[at(i, j)] = yo
				tbY[at(i, j)] = 1
			} else {
				Y[at(i, j)] = ye
				tbY[at(i, j)] = 3
			}
		}
	}

	// Traceback from the best of the three end states.
	state := byte(1)
	best := M[at(n, m)]
	if X[at(n, m)] > best {
		best, state = X[at(n, m)], 2
	}
	if Y[at(n, m)] > best {
		state = 3
	}

	var rev []Step
	i, j := n, m
	for i > 0 || j > 0 {
		switch state {
		case 1:
			op := OpMismatch
			if a[i-1] == b[j-1] {
				op = OpMatch
			}
			rev = append(rev, Step{Op: op, I: i - 1, J: j - 1})
			state = tbM[at(i, j)]
			i--
			j--
		case 2:
			rev = append(rev, Step{Op: OpGapA, I: i - 1, J: -1})
			state = tbX[at(i, j)]
			i--
		case 3:
			rev = append(rev, Step{Op: OpGapB, I: -1, J: j - 1})
			state = tbY[at(i, j)]
			j--
		default:
			panic("align: corrupt gotoh traceback")
		}
	}
	putInt32(M)
	putInt32(X)
	putInt32(Y)
	putBytes(tbM)
	putBytes(tbX)
	putBytes(tbY)
	reverseSteps(rev)
	return rev
}

// AffineScore computes the total affine-gap score of an alignment.
func AffineScore(steps []Step, sc AffineScoring) int {
	total := 0
	prev := Op(-1)
	for _, s := range steps {
		switch s.Op {
		case OpMatch:
			total += sc.Match
		case OpMismatch:
			total += sc.Mismatch
		case OpGapA, OpGapB:
			total += sc.GapExtend
			if s.Op != prev {
				total += sc.GapOpen
			}
		}
		prev = s.Op
	}
	return total
}

// GapRuns counts maximal runs of consecutive gap columns, the quantity
// affine penalties minimize (each run is one potential func_id diamond).
func GapRuns(steps []Step) int {
	runs := 0
	inRun := false
	for _, s := range steps {
		gap := s.Op == OpGapA || s.Op == OpGapB
		if gap && !inRun {
			runs++
		}
		inRun = gap
	}
	return runs
}

// GotohAlignerCodes adapts GotohCodes to the CodedFunc shape used by the
// merger: the linear Scoring's Gap is used as the extension penalty and one
// extra gap penalty as the opening cost.
func GotohAlignerCodes(a, b []uint32, sc Scoring) []Step {
	return GotohCodes(a, b, AffineScoring{
		Match:     sc.Match,
		Mismatch:  sc.Mismatch,
		GapOpen:   sc.Gap,
		GapExtend: sc.Gap,
	})
}
