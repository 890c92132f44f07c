package align

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// refNW is the reference Needleman–Wunsch the kernels are pinned to: the
// textbook full score matrix, no pooling, no register tricks. Traceback
// re-derives each step from the scores, preferring the diagonal, then up,
// then left — the kernels' tie-break order — so for equal scoring its
// []Step is the unique answer every direct kernel must reproduce.
func refNW(a, b []uint32, sc Scoring) []Step {
	n, m := len(a), len(b)
	sub := func(i, j int) int {
		if a[i] == b[j] {
			return sc.Match
		}
		return sc.Mismatch
	}
	S := make([][]int, n+1)
	for i := range S {
		S[i] = make([]int, m+1)
		S[i][0] = i * sc.Gap
	}
	for j := 0; j <= m; j++ {
		S[0][j] = j * sc.Gap
	}
	for i := 1; i <= n; i++ {
		for j := 1; j <= m; j++ {
			S[i][j] = max(S[i-1][j-1]+sub(i-1, j-1), S[i-1][j]+sc.Gap, S[i][j-1]+sc.Gap)
		}
	}
	var rev []Step
	for i, j := n, m; i > 0 || j > 0; {
		switch {
		case i > 0 && j > 0 && S[i][j] == S[i-1][j-1]+sub(i-1, j-1):
			op := OpMismatch
			if a[i-1] == b[j-1] {
				op = OpMatch
			}
			rev = append(rev, Step{Op: op, I: i - 1, J: j - 1})
			i, j = i-1, j-1
		case i > 0 && S[i][j] == S[i-1][j]+sc.Gap:
			rev = append(rev, Step{Op: OpGapA, I: i - 1, J: -1})
			i--
		default:
			rev = append(rev, Step{Op: OpGapB, I: -1, J: j - 1})
			j--
		}
	}
	out := make([]Step, len(rev))
	for k, s := range rev {
		out[len(rev)-1-k] = s
	}
	return out
}

// str turns a string into one code per byte.
func str(s string) []uint32 {
	c := make([]uint32, len(s))
	for i := range s {
		c[i] = uint32(s[i])
	}
	return c
}

// bytesMod turns random bytes into codes over a k-letter alphabet, keeping
// at most limit of them, so quick.Check inputs produce plenty of matches.
func bytesMod(raw []byte, k byte, limit int) []uint32 {
	if len(raw) > limit {
		raw = raw[:limit]
	}
	c := make([]uint32, len(raw))
	for i, x := range raw {
		c[i] = uint32(x % k)
	}
	return c
}

func alignStrings(t *testing.T, a, b string) []Step {
	t.Helper()
	steps := NeedlemanWunschCodes(str(a), str(b), DefaultScoring)
	if !Validate(steps, len(a), len(b)) {
		t.Fatalf("invalid alignment of %q and %q: %v", a, b, steps)
	}
	return steps
}

func countOps(steps []Step) map[Op]int {
	c := map[Op]int{}
	for _, s := range steps {
		c[s.Op]++
	}
	return c
}

func TestNWIdentical(t *testing.T) {
	steps := alignStrings(t, "hello", "hello")
	c := countOps(steps)
	if c[OpMatch] != 5 || len(steps) != 5 {
		t.Errorf("identical strings should fully match: %v", steps)
	}
}

func TestNWDisjoint(t *testing.T) {
	steps := alignStrings(t, "aaa", "bbb")
	c := countOps(steps)
	if c[OpMatch] != 0 {
		t.Errorf("disjoint strings must not match: %v", steps)
	}
}

func TestNWClassicExample(t *testing.T) {
	// The canonical GATTACA example.
	steps := alignStrings(t, "GCATGCG", "GATTACA")
	c := countOps(steps)
	if c[OpMatch] < 4 {
		t.Errorf("expected at least 4 matches, got %d (%v)", c[OpMatch], steps)
	}
}

func TestNWEmpty(t *testing.T) {
	steps := alignStrings(t, "", "abc")
	if len(steps) != 3 || steps[0].Op != OpGapB {
		t.Errorf("empty A should yield all GapB: %v", steps)
	}
	steps = alignStrings(t, "abc", "")
	if len(steps) != 3 || steps[0].Op != OpGapA {
		t.Errorf("empty B should yield all GapA: %v", steps)
	}
	steps = alignStrings(t, "", "")
	if len(steps) != 0 {
		t.Errorf("empty/empty should be empty: %v", steps)
	}
}

func TestNWSubsequence(t *testing.T) {
	steps := alignStrings(t, "abc", "xaxbxcx")
	c := countOps(steps)
	if c[OpMatch] != 3 {
		t.Errorf("abc should fully embed in xaxbxcx: %v", steps)
	}
}

func TestDecomposeMismatches(t *testing.T) {
	steps := []Step{
		{Op: OpMatch, I: 0, J: 0},
		{Op: OpMismatch, I: 1, J: 1},
		{Op: OpMatch, I: 2, J: 2},
	}
	out := DecomposeMismatches(steps)
	if len(out) != 4 {
		t.Fatalf("want 4 steps, got %v", out)
	}
	if out[1].Op != OpGapA || out[2].Op != OpGapB {
		t.Errorf("mismatch should expand to GapA+GapB: %v", out)
	}
	if !Validate(out, 3, 3) {
		t.Error("decomposed alignment is invalid")
	}
}

func TestValidateRejectsBadAlignments(t *testing.T) {
	// Out-of-order indices.
	bad := []Step{{Op: OpMatch, I: 1, J: 0}, {Op: OpMatch, I: 0, J: 1}}
	if Validate(bad, 2, 2) {
		t.Error("out-of-order alignment accepted")
	}
	// Missing elements.
	short := []Step{{Op: OpMatch, I: 0, J: 0}}
	if Validate(short, 2, 1) {
		t.Error("incomplete alignment accepted")
	}
}

// slowScore computes the optimal score by memoized recursion, for
// cross-checking on small inputs.
func slowScore(a, b []uint32, sc Scoring) int {
	memo := map[[2]int]int{}
	var rec func(i, j int) int
	rec = func(i, j int) int {
		if i == len(a) {
			return (len(b) - j) * sc.Gap
		}
		if j == len(b) {
			return (len(a) - i) * sc.Gap
		}
		if v, ok := memo[[2]int{i, j}]; ok {
			return v
		}
		sub := sc.Mismatch
		if a[i] == b[j] {
			sub = sc.Match
		}
		best := rec(i+1, j+1) + sub
		if v := rec(i+1, j) + sc.Gap; v > best {
			best = v
		}
		if v := rec(i, j+1) + sc.Gap; v > best {
			best = v
		}
		memo[[2]int{i, j}] = best
		return best
	}
	return rec(0, 0)
}

func randSeq(r *rand.Rand, n int, alphabet string) []uint32 {
	buf := make([]uint32, n)
	for i := range buf {
		buf[i] = uint32(alphabet[r.Intn(len(alphabet))])
	}
	return buf
}

// TestNWOptimality checks the kernel and the reference oracle against the
// exhaustive optimum.
func TestNWOptimality(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		a := randSeq(r, r.Intn(12), "abcd")
		b := randSeq(r, r.Intn(12), "abcd")
		want := slowScore(a, b, DefaultScoring)
		for _, c := range []struct {
			name  string
			steps []Step
		}{
			{"kernel", NeedlemanWunschCodes(a, b, DefaultScoring)},
			{"oracle", refNW(a, b, DefaultScoring)},
		} {
			name, steps := c.name, c.steps
			if !Validate(steps, len(a), len(b)) {
				t.Fatalf("%s: invalid alignment of %v, %v", name, a, b)
			}
			if got := Score(steps, DefaultScoring); got != want {
				t.Fatalf("%s: NW score %d != optimal %d for %v, %v", name, got, want, a, b)
			}
		}
	}
}

func TestHirschbergMatchesNW(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for iter := 0; iter < 200; iter++ {
		a := randSeq(r, r.Intn(40), "abc")
		b := randSeq(r, r.Intn(40), "abc")
		h := HirschbergCodes(a, b, DefaultScoring)
		if !Validate(h, len(a), len(b)) {
			t.Fatalf("hirschberg invalid for %v, %v: %v", a, b, h)
		}
		nw := NeedlemanWunschCodes(a, b, DefaultScoring)
		if Score(h, DefaultScoring) != Score(nw, DefaultScoring) {
			t.Fatalf("hirschberg score %d != NW %d for %v, %v",
				Score(h, DefaultScoring), Score(nw, DefaultScoring), a, b)
		}
	}
}

func TestHirschbergProperty(t *testing.T) {
	// Property: for any pair of byte strings, Hirschberg produces a valid
	// alignment whose score equals the NW optimum.
	f := func(aRaw, bRaw []byte) bool {
		a, b := bytesMod(aRaw, 8, 60), bytesMod(bRaw, 8, 60)
		h := HirschbergCodes(a, b, DefaultScoring)
		if !Validate(h, len(a), len(b)) {
			return false
		}
		return Score(h, DefaultScoring) == Score(refNW(a, b, DefaultScoring), DefaultScoring)
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestAlignDispatch(t *testing.T) {
	a := randSeq(rand.New(rand.NewSource(3)), 100, "ab")
	b := randSeq(rand.New(rand.NewSource(4)), 100, "ab")
	steps := AlignCodes(a, b, DefaultScoring)
	if !Validate(steps, len(a), len(b)) {
		t.Fatal("AlignCodes produced invalid alignment")
	}
}

func TestScoreComputation(t *testing.T) {
	steps := []Step{
		{Op: OpMatch}, {Op: OpMatch}, {Op: OpMismatch}, {Op: OpGapA}, {Op: OpGapB},
	}
	if got := Score(steps, DefaultScoring); got != 2-1-1-1 {
		t.Errorf("Score = %d, want -1", got)
	}
}

func BenchmarkNeedlemanWunsch500(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	s1 := randSeq(r, 500, "abcdefgh")
	s2 := randSeq(r, 500, "abcdefgh")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NeedlemanWunschCodes(s1, s2, DefaultScoring)
	}
}

func BenchmarkHirschberg500(b *testing.B) {
	r := rand.New(rand.NewSource(6))
	s1 := randSeq(r, 500, "abcdefgh")
	s2 := randSeq(r, 500, "abcdefgh")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		HirschbergCodes(s1, s2, DefaultScoring)
	}
}
