package align

// HirschbergCodes computes an optimal global alignment in O(n+m) space using
// Hirschberg's divide-and-conquer refinement of Needleman–Wunsch. It
// produces an alignment with the same score as NeedlemanWunschCodes (the
// exact column sequence may differ among co-optimal alignments); among
// equally good split points the first wins, so the result is deterministic.
func HirschbergCodes(a, b []uint32, sc Scoring) []Step {
	var out []Step
	hirschRecCodes(0, len(a), 0, len(b), a, b, sc, &out)
	return out
}

func hirschRecCodes(aLo, aHi, bLo, bHi int, a, b []uint32, sc Scoring, out *[]Step) {
	n, m := aHi-aLo, bHi-bLo
	if n <= 1 || m <= 1 {
		// Small enough for direct DP; translate indices.
		steps := NeedlemanWunschCodes(a[aLo:aHi], b[bLo:bHi], sc)
		for _, s := range steps {
			if s.I >= 0 {
				s.I += aLo
			}
			if s.J >= 0 {
				s.J += bLo
			}
			*out = append(*out, s)
		}
		return
	}

	mid := aLo + n/2
	// Forward scores for A[aLo:mid] against prefixes of B, backward scores
	// for A[mid:aHi] against suffixes of B.
	scoreL := nwLastRowCodes(aLo, mid, bLo, bHi, a, b, sc, false)
	scoreR := nwLastRowCodes(mid, aHi, bLo, bHi, a, b, sc, true)

	// Choose the split point of B maximizing total score.
	best, bestJ := scoreL[0]+scoreR[m], 0
	for j := 1; j <= m; j++ {
		if s := scoreL[j] + scoreR[m-j]; s > best {
			best, bestJ = s, j
		}
	}
	putInt32(scoreL)
	putInt32(scoreR)
	hirschRecCodes(aLo, mid, bLo, bLo+bestJ, a, b, sc, out)
	hirschRecCodes(mid, aHi, bLo+bestJ, bHi, a, b, sc, out)
}

// nwLastRowCodes computes the final row of the NW score matrix for
// A[aLo:aHi] × B[bLo:bHi]. When rev is true, both ranges are processed in
// reverse (suffix alignment scores). The returned row is pooled scratch —
// the caller passes it to putInt32 when done; the second scratch row is
// recycled here.
func nwLastRowCodes(aLo, aHi, bLo, bHi int, a, b []uint32, sc Scoring, rev bool) []int32 {
	n, m := aHi-aLo, bHi-bLo
	prev := getInt32(m + 1)
	cur := getInt32(m + 1)
	prev[0] = 0
	for j := 1; j <= m; j++ {
		prev[j] = int32(j * sc.Gap)
	}
	// bSeg is the band of b this recursion reads, oriented so the inner loop
	// indexes it forward in both directions — the direction branch is hoisted
	// out of the row loop and the slice bounds let the compiler elide the
	// inner bounds checks. pd and left carry prev[j-1] and cur[j-1] in
	// registers.
	bSeg := b[bLo:bHi]
	mat, mis, gap := int32(sc.Match), int32(sc.Mismatch), int32(sc.Gap)
	for i := 1; i <= n; i++ {
		var ai uint32
		if rev {
			ai = a[aHi-i]
		} else {
			ai = a[aLo+i-1]
		}
		prevR := prev[: m+1 : m+1]
		curR := cur[: m+1 : m+1]
		pd := prevR[0]
		left := int32(i) * gap
		curR[0] = left
		for j := 1; j <= m; j++ {
			pj := prevR[j]
			var bj uint32
			if rev {
				bj = bSeg[m-j]
			} else {
				bj = bSeg[j-1]
			}
			sub := mis
			if ai == bj {
				sub = mat
			}
			best := pd + sub
			if up := pj + gap; up > best {
				best = up
			}
			if lf := left + gap; lf > best {
				best = lf
			}
			curR[j] = best
			pd = pj
			left = best
		}
		prev, cur = cur, prev
	}
	putInt32(cur)
	return prev
}
