package align

// BandedCodes computes a global alignment restricted to a diagonal band of the
// dynamic-programming matrix: only cells with |i−j−(n−m)/2·0| within the
// band (after centering on the main diagonal of the rectangular problem)
// are explored. Cost drops from O(n·m) to O((n+m)·band) at the price of
// optimality — alignments that would need to shift code by more than the
// band width degrade into gaps.
//
// Sequence alignment dominates FMSA's compile time (paper Fig. 13, §V-C);
// banding is the classic bioinformatics response to exactly this trade-off
// and the same lever later explored by the follow-up work on cheaper
// function-merging pipelines.
func BandedCodes(a, b []uint32, sc Scoring, band int) []Step {
	n, m := len(a), len(b)
	if band <= 0 {
		band = 1
	}
	if n == 0 || m == 0 {
		return gapsOnly(n, m)
	}
	// The band must at least cover the length difference, or the corner
	// cell is unreachable.
	diff := n - m
	if diff < 0 {
		diff = -diff
	}
	if band < diff+1 {
		band = diff + 1
	}
	if band >= n+m {
		return NeedlemanWunschCodes(a, b, sc)
	}
	// Very different lengths force a band so wide the banded matrix stops
	// paying off (and can exceed memory); fall back to the standard
	// dispatcher, which routes oversized problems to Hirschberg. Checked by
	// division for the same overflow reason as useDirect.
	width := 2*band + 1
	if n+1 > maxDirectCells/width {
		return AlignCodes(a, b, sc)
	}

	const negInf = int32(-1 << 29)
	// score[i][k] holds the score of cell (i, j) with j = i - band + k,
	// clipped to valid j. Both matrices are recycled scratch: score is
	// explicitly initialized to negInf below, and dirs cells are only read
	// at cells the traceback reaches — all of which were written, because
	// unwritten cells keep score negInf and negInf cells are never chosen
	// as predecessors.
	score := getInt32((n + 1) * width)
	dirs := getBytes((n + 1) * width)
	at := func(i, k int) int { return i*width + k }
	jOf := func(i, k int) int { return i - band + k }
	kOf := func(i, j int) int { return j - i + band }

	for i := 0; i <= n; i++ {
		for k := 0; k < width; k++ {
			score[at(i, k)] = negInf
		}
	}
	score[at(0, kOf(0, 0))] = 0
	for j := 1; j <= m && kOf(0, j) < width; j++ {
		score[at(0, kOf(0, j))] = int32(j * sc.Gap)
		dirs[at(0, kOf(0, j))] = dirLeft
	}

	for i := 1; i <= n; i++ {
		for k := 0; k < width; k++ {
			j := jOf(i, k)
			if j < 0 || j > m {
				continue
			}
			best, dir := negInf, byte(0)
			if j == 0 {
				best, dir = int32(i*sc.Gap), dirUp
			}
			if i > 0 && j > 0 {
				// Diagonal: same k in row i-1.
				if prev := score[at(i-1, k)]; prev > negInf {
					sub := sc.Mismatch
					if a[i-1] == b[j-1] {
						sub = sc.Match
					}
					if v := prev + int32(sub); v > best {
						best, dir = v, dirDiag
					}
				}
			}
			// Up (consume A): cell (i-1, j) is k+1 in row i-1.
			if k+1 < width {
				if prev := score[at(i-1, k+1)]; prev > negInf {
					if v := prev + int32(sc.Gap); v > best {
						best, dir = v, dirUp
					}
				}
			}
			// Left (consume B): cell (i, j-1) is k-1 in the same row.
			if k-1 >= 0 {
				if prev := score[at(i, k-1)]; prev > negInf {
					if v := prev + int32(sc.Gap); v > best {
						best, dir = v, dirLeft
					}
				}
			}
			if dir != 0 {
				score[at(i, k)] = best
				dirs[at(i, k)] = dir
			}
		}
	}

	// Traceback from (n, m).
	var rev []Step
	i, j := n, m
	for i > 0 || j > 0 {
		k := kOf(i, j)
		if k < 0 || k >= width {
			// Out of band (cannot happen when band covers diff).
			panic("align: banded traceback left the band")
		}
		switch dirs[at(i, k)] {
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
			panic("align: corrupt banded traceback")
		}
	}
	putInt32(score)
	putBytes(dirs)
	reverseSteps(rev)
	return rev
}

// BandedAlignerCodes returns a CodedFunc with a fixed band.
func BandedAlignerCodes(band int) CodedFunc {
	return func(a, b []uint32, sc Scoring) []Step {
		return BandedCodes(a, b, sc, band)
	}
}
