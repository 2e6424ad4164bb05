package mat

import (
	"math"
	"testing"
	"testing/quick"

	"dismastd/internal/xrand"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewShapes(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("unexpected shape %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1, 2) did not panic")
		}
	}()
	New(-1, 2)
}

func TestNewFromPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewFrom with wrong length did not panic")
		}
	}()
	NewFrom(2, 2, []float64{1, 2, 3})
}

func TestAtSetRow(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Fatal("Set/At roundtrip failed")
	}
	row := m.Row(1)
	row[0] = 5
	if m.At(1, 0) != 5 {
		t.Fatal("Row is not a view")
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := NewFrom(1, 2, []float64{1, 2})
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestAddSubScale(t *testing.T) {
	a := NewFrom(2, 2, []float64{1, 2, 3, 4})
	b := NewFrom(2, 2, []float64{5, 6, 7, 8})
	sum := New(2, 2)
	sum.Add(a, b)
	if sum.At(1, 1) != 12 {
		t.Fatalf("Add wrong: %v", sum.Data)
	}
	diff := New(2, 2)
	diff.Sub(b, a)
	if diff.At(0, 0) != 4 {
		t.Fatalf("Sub wrong: %v", diff.Data)
	}
	sc := New(2, 2)
	sc.Scale(2, a)
	if sc.At(1, 0) != 6 {
		t.Fatalf("Scale wrong: %v", sc.Data)
	}
	sc.AddScaled(1, a)
	if sc.At(1, 0) != 9 {
		t.Fatalf("AddScaled wrong: %v", sc.Data)
	}
}

func TestMulKnown(t *testing.T) {
	a := NewFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewFrom(3, 2, []float64{7, 8, 9, 10, 11, 12})
	p := Mul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if p.Data[i] != v {
			t.Fatalf("Mul[%d] = %v, want %v", i, p.Data[i], v)
		}
	}
}

func TestMulIdentity(t *testing.T) {
	src := xrand.New(1)
	a := RandomGaussian(4, 4, src)
	p := Mul(a, Eye(4))
	if MaxAbsDiff(a, p) != 0 {
		t.Fatal("A * I != A")
	}
}

func TestGramSymmetricPSD(t *testing.T) {
	src := xrand.New(2)
	a := RandomGaussian(10, 4, src)
	g := Gram(a)
	for i := 0; i < 4; i++ {
		if g.At(i, i) < 0 {
			t.Fatalf("Gram diagonal negative at %d", i)
		}
		for j := 0; j < 4; j++ {
			if !almostEqual(g.At(i, j), g.At(j, i), 1e-12) {
				t.Fatalf("Gram not symmetric at (%d,%d)", i, j)
			}
		}
	}
	// Matches Aᵀ·A computed the long way.
	want := Mul(Transpose(a), a)
	if MaxAbsDiff(g, want) > 1e-12 {
		t.Fatal("Gram != AᵀA")
	}
}

func TestCrossGramMatchesTransposeMul(t *testing.T) {
	src := xrand.New(3)
	a := RandomGaussian(7, 3, src)
	b := RandomGaussian(7, 5, src)
	got := CrossGram(a, b)
	want := Mul(Transpose(a), b)
	if MaxAbsDiff(got, want) > 1e-12 {
		t.Fatal("CrossGram != AᵀB")
	}
}

func TestAccumulateCrossGramPartitions(t *testing.T) {
	// Summing partial Grams over row blocks equals the full Gram —
	// the identity behind the paper's all-to-all reduction.
	src := xrand.New(4)
	a := RandomGaussian(9, 3, src)
	b := RandomGaussian(9, 3, src)
	full := CrossGram(a, b)
	sum := New(3, 3)
	for _, blk := range [][2]int{{0, 4}, {4, 7}, {7, 9}} {
		AccumulateCrossGram(sum, a.SliceRows(blk[0], blk[1]), b.SliceRows(blk[0], blk[1]))
	}
	if MaxAbsDiff(full, sum) > 1e-12 {
		t.Fatal("partial Gram aggregation != full Gram")
	}
}

func TestHadamard(t *testing.T) {
	a := NewFrom(2, 2, []float64{1, 2, 3, 4})
	b := NewFrom(2, 2, []float64{2, 3, 4, 5})
	h := New(2, 2)
	h.Hadamard(a, b)
	want := []float64{2, 6, 12, 20}
	for i := range want {
		if h.Data[i] != want[i] {
			t.Fatalf("Hadamard[%d] = %v", i, h.Data[i])
		}
	}
	all := HadamardAll(a, b, a)
	if all.At(1, 1) != 80 {
		t.Fatalf("HadamardAll wrong: %v", all.Data)
	}
}

func TestKhatriRaoKnown(t *testing.T) {
	a := NewFrom(2, 2, []float64{1, 2, 3, 4})
	b := NewFrom(2, 2, []float64{5, 6, 7, 8})
	kr := KhatriRao(a, b)
	if kr.Rows != 4 || kr.Cols != 2 {
		t.Fatalf("KhatriRao shape %dx%d", kr.Rows, kr.Cols)
	}
	want := []float64{5, 12, 7, 16, 15, 24, 21, 32}
	for i := range want {
		if kr.Data[i] != want[i] {
			t.Fatalf("KhatriRao[%d] = %v, want %v", i, kr.Data[i], want[i])
		}
	}
}

func TestKhatriRaoGramIdentity(t *testing.T) {
	// (A ⊙ B)ᵀ(A ⊙ B) = AᵀA .* BᵀB — the identity ALS exploits to
	// avoid materialising the Khatri-Rao product.
	src := xrand.New(5)
	a := RandomGaussian(4, 3, src)
	b := RandomGaussian(5, 3, src)
	kr := KhatriRao(a, b)
	left := Gram(kr)
	right := HadamardAll(Gram(a), Gram(b))
	if MaxAbsDiff(left, right) > 1e-10 {
		t.Fatalf("Khatri-Rao Gram identity violated by %v", MaxAbsDiff(left, right))
	}
}

func TestTransposeInvolution(t *testing.T) {
	src := xrand.New(6)
	a := RandomGaussian(3, 5, src)
	if MaxAbsDiff(a, Transpose(Transpose(a))) != 0 {
		t.Fatal("transpose twice is not identity")
	}
}

func TestNormsAndReductions(t *testing.T) {
	a := NewFrom(2, 2, []float64{3, 4, 0, 0})
	if FrobeniusNorm(a) != 5 {
		t.Fatalf("FrobeniusNorm = %v", FrobeniusNorm(a))
	}
	if SumAll(a) != 7 {
		t.Fatalf("SumAll = %v", SumAll(a))
	}
	b := NewFrom(2, 2, []float64{1, 1, 1, 1})
	if Dot(a, b) != 7 {
		t.Fatalf("Dot = %v", Dot(a, b))
	}
}

func TestStackAndSliceRows(t *testing.T) {
	a := NewFrom(2, 2, []float64{1, 2, 3, 4})
	b := NewFrom(1, 2, []float64{5, 6})
	s := StackRows(a, b)
	if s.Rows != 3 || s.At(2, 1) != 6 {
		t.Fatalf("StackRows wrong: %+v", s)
	}
	top := s.SliceRows(0, 2)
	if MaxAbsDiff(top, a) != 0 {
		t.Fatal("SliceRows top mismatch")
	}
	top.Set(0, 0, 9)
	if s.At(0, 0) != 9 {
		t.Fatal("SliceRows is not a view")
	}
}

func TestAppendRows(t *testing.T) {
	a := NewFrom(2, 2, []float64{1, 2, 3, 4})
	g := AppendRows(a, 2)
	if g.Rows != 4 || g.Cols != 2 || len(g.Data) != 8 {
		t.Fatalf("AppendRows shape %dx%d len %d", g.Rows, g.Cols, len(g.Data))
	}
	if MaxAbsDiff(g.SliceRows(0, 2), a) != 0 {
		t.Fatal("AppendRows lost the existing rows")
	}
	for _, v := range g.Data[4:] {
		if v != 0 {
			t.Fatalf("appended rows not zeroed: %v", g.Data)
		}
	}
	if a.Rows != 2 || len(a.Data) != 4 {
		t.Fatal("AppendRows modified its argument's header")
	}
	if same := AppendRows(g, 0); same.Rows != 4 || &same.Data[0] != &g.Data[0] {
		t.Fatal("AppendRows(m, 0) reallocated")
	}

	// Spare capacity is reused in place, and rows written into it by a
	// previous, since-abandoned extension are zeroed again.
	spare := &Dense{Rows: 1, Cols: 2, Data: make([]float64, 2, 8)}
	spare.Data[0], spare.Data[1] = 7, 8
	dirty := AppendRows(spare, 1)
	dirty.Set(1, 0, 99)
	h := AppendRows(spare, 2)
	if &h.Data[0] != &spare.Data[0] {
		t.Fatal("AppendRows reallocated despite spare capacity")
	}
	if h.At(0, 1) != 8 || h.At(1, 0) != 0 || h.At(2, 1) != 0 {
		t.Fatalf("in-place AppendRows = %v", h.Data)
	}
	if !Overlaps(h, spare) || Overlaps(h.SliceRows(1, 3), spare) {
		t.Fatal("alias checks disagree with the shared backing array")
	}
}

// TestAppendRowsAmortized grows a factor one row at a time, the event
// path's common case, and checks that reallocation is geometric: the
// number of moves is logarithmic in the final size and the elements
// copied across all of them stay within a constant factor of it —
// where stacking a fresh matrix per row would copy quadratically.
func TestAppendRowsAmortized(t *testing.T) {
	const rows, cols = 20000, 10
	m := New(0, cols)
	moves, copied := 0, 0
	for i := 0; i < rows; i++ {
		before := m.Data
		m = AppendRows(m, 1)
		m.Set(i, 0, float64(i))
		if cap(before) > 0 && &before[:cap(before)][0] != &m.Data[0] {
			moves++
			copied += len(before)
		}
	}
	for i := 0; i < rows; i++ {
		if m.At(i, 0) != float64(i) {
			t.Fatalf("row %d lost across reallocations: %v", i, m.At(i, 0))
		}
	}
	if moves > 128 {
		t.Fatalf("%d reallocations for %d single-row appends, want O(log n)", moves, rows)
	}
	if copied > 10*rows*cols {
		t.Fatalf("copied %d elements growing to %d, want O(n)", copied, rows*cols)
	}
}

func TestCholeskyReconstruction(t *testing.T) {
	src := xrand.New(7)
	b := RandomGaussian(8, 4, src)
	a := Gram(b) // PSD; almost surely PD with 8 independent rows
	for i := 0; i < 4; i++ {
		a.Set(i, i, a.At(i, i)+0.1)
	}
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	recon := Mul(l, Transpose(l))
	if MaxAbsDiff(a, recon) > 1e-10 {
		t.Fatalf("LLᵀ differs from A by %v", MaxAbsDiff(a, recon))
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewFrom(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := Cholesky(a); err != ErrNotSPD {
		t.Fatalf("expected ErrNotSPD, got %v", err)
	}
}

func TestSolveSPD(t *testing.T) {
	src := xrand.New(8)
	b := RandomGaussian(10, 5, src)
	a := Gram(b)
	for i := 0; i < 5; i++ {
		a.Set(i, i, a.At(i, i)+0.5)
	}
	rhs := RandomGaussian(5, 3, src)
	x, err := SolveSPD(a, rhs)
	if err != nil {
		t.Fatal(err)
	}
	if MaxAbsDiff(Mul(a, x), rhs) > 1e-9 {
		t.Fatalf("A·X differs from B by %v", MaxAbsDiff(Mul(a, x), rhs))
	}
}

func TestSolveRightRidgeMatchesInverse(t *testing.T) {
	src := xrand.New(9)
	b := RandomGaussian(12, 4, src)
	d := Gram(b)
	for i := 0; i < 4; i++ {
		d.Set(i, i, d.At(i, i)+1)
	}
	m := RandomGaussian(6, 4, src)
	got := SolveRightRidge(m, d)
	inv, err := Inverse(d)
	if err != nil {
		t.Fatal(err)
	}
	want := Mul(m, inv)
	if MaxAbsDiff(got, want) > 1e-9 {
		t.Fatalf("SolveRightRidge differs from M·D⁻¹ by %v", MaxAbsDiff(got, want))
	}
}

func TestSolveRightRidgeSingularFallback(t *testing.T) {
	// Rank-1 Gram: plain Cholesky fails, the ridge fallback must still
	// return finite values.
	ones := NewFrom(3, 2, []float64{1, 1, 1, 1, 1, 1})
	d := Gram(ones)
	m := NewFrom(2, 2, []float64{1, 2, 3, 4})
	got := SolveRightRidge(m, d)
	for _, v := range got.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite entry %v", v)
		}
	}
}

func TestInverseKnown(t *testing.T) {
	a := NewFrom(2, 2, []float64{4, 7, 2, 6})
	inv, err := Inverse(a)
	if err != nil {
		t.Fatal(err)
	}
	want := NewFrom(2, 2, []float64{0.6, -0.7, -0.2, 0.4})
	if MaxAbsDiff(inv, want) > 1e-12 {
		t.Fatalf("Inverse wrong: %v", inv.Data)
	}
}

func TestInverseSingular(t *testing.T) {
	a := NewFrom(2, 2, []float64{1, 2, 2, 4})
	if _, err := Inverse(a); err != ErrSingular {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
}

func TestInversePropertyAAInvIsIdentity(t *testing.T) {
	src := xrand.New(10)
	if err := quick.Check(func(seed uint32) bool {
		s := xrand.New(uint64(seed) | 1)
		n := 1 + s.Intn(6)
		a := RandomGaussian(n, n, src)
		inv, err := Inverse(a)
		if err != nil {
			return true // singular random matrix: vanishingly rare, skip
		}
		return MaxAbsDiff(Mul(a, inv), Eye(n)) < 1e-8
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMulDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Mul with mismatched inner dims did not panic")
		}
	}()
	Mul(New(2, 3), New(2, 3))
}

func BenchmarkGram(b *testing.B) {
	a := RandomGaussian(10000, 10, xrand.New(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Gram(a)
	}
}

func BenchmarkSolveRightRidge(b *testing.B) {
	src := xrand.New(2)
	d := Gram(RandomGaussian(100, 10, src))
	m := RandomGaussian(10000, 10, src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = SolveRightRidge(m, d)
	}
}
