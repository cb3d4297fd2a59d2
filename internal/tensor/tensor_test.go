package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched data/shape")
		}
	}()
	New([]float64{1, 2, 3}, 2, 2)
}

func TestBasicAccessors(t *testing.T) {
	m := New([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if m.Rank() != 2 || m.Rows() != 2 || m.Cols() != 3 || m.Len() != 6 {
		t.Fatalf("unexpected dims: rank=%d rows=%d cols=%d len=%d", m.Rank(), m.Rows(), m.Cols(), m.Len())
	}
	if m.Data[1*3+2] != 6 {
		t.Fatalf("[1,2]=%v want 6", m.Data[1*3+2])
	}
	s := New([]float64{3.5})
	if s.Rank() != 0 || s.Item() != 3.5 {
		t.Fatalf("scalar broken: rank=%d item=%v", s.Rank(), s.Item())
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows() != 3 || m.Cols() != 2 || m.Data[2*2+1] != 6 {
		t.Fatalf("FromRows wrong: %v", m.Data)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged rows")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestCloneIndependence(t *testing.T) {
	a := New([]float64{1, 2}, 2)
	b := a.Clone()
	b.Data[0] = 99
	if a.Data[0] != 1 {
		t.Fatal("Clone shares data")
	}
}

func TestMatMulValues(t *testing.T) {
	a := New([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := New([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMul[%d]=%v want %v", i, c.Data[i], w)
		}
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(Zeros(2, 3), Zeros(2, 3))
}

func TestBroadcastAddRowVector(t *testing.T) {
	x := New([]float64{1, 2, 3, 4}, 2, 2)
	b := New([]float64{10, 20}, 2)
	y := Add(x, b)
	want := []float64{11, 22, 13, 24}
	for i, w := range want {
		if y.Data[i] != w {
			t.Fatalf("broadcast add[%d]=%v want %v", i, y.Data[i], w)
		}
	}
}

func TestBroadcastScalar(t *testing.T) {
	x := New([]float64{1, 2, 3}, 3)
	y := Mul(x, New([]float64{2}))
	for i, w := range []float64{2, 4, 6} {
		if y.Data[i] != w {
			t.Fatalf("scalar mul[%d]=%v want %v", i, y.Data[i], w)
		}
	}
	// scalar on the left
	z := Sub(New([]float64{10}), x)
	for i, w := range []float64{9, 8, 7} {
		if z.Data[i] != w {
			t.Fatalf("scalar sub[%d]=%v want %v", i, z.Data[i], w)
		}
	}
}

func TestReductions(t *testing.T) {
	x := New([]float64{1, 2, 3, 4}, 2, 2)
	if got := Sum(x).Item(); got != 10 {
		t.Fatalf("Sum=%v", got)
	}
	if got := Mean(x).Item(); got != 2.5 {
		t.Fatalf("Mean=%v", got)
	}
	r := SumRows(x)
	if r.Rows() != 2 || r.Data[0] != 3 || r.Data[1] != 7 {
		t.Fatalf("SumRows=%v", r.Data)
	}
}

func TestClampValues(t *testing.T) {
	x := New([]float64{-2, -0.5, 0.5, 2}, 4)
	y := Clamp(x, -1, 1)
	want := []float64{-1, -0.5, 0.5, 1}
	for i, w := range want {
		if y.Data[i] != w {
			t.Fatalf("Clamp[%d]=%v want %v", i, y.Data[i], w)
		}
	}
}

func TestMinValues(t *testing.T) {
	a := New([]float64{1, 5}, 2)
	b := New([]float64{3, 2}, 2)
	if mn := Min(a, b); mn.Data[0] != 1 || mn.Data[1] != 2 {
		t.Fatalf("min=%v", mn.Data)
	}
}

func TestLogSoftmaxRowsSumToOne(t *testing.T) {
	x := New([]float64{1, 2, 3, -1, 0, 1000}, 2, 3)
	y := LogSoftmax(x)
	for i := 0; i < 2; i++ {
		s := 0.0
		for j := 0; j < 3; j++ {
			s += math.Exp(y.Data[i*3+j])
		}
		if math.Abs(s-1) > 1e-12 {
			t.Fatalf("row %d softmax sums to %v", i, s)
		}
	}
}

func TestGatherCols(t *testing.T) {
	x := New([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	g := GatherCols(x, []int{2, 0})
	if g.Data[0] != 3 || g.Data[1] != 4 {
		t.Fatalf("GatherCols=%v", g.Data)
	}
}

func TestDetachStopsGradient(t *testing.T) {
	x := New([]float64{2}, 1).Param()
	y := Mul(x.Detach(), x) // only the second factor should receive grad
	Sum(y).Backward()
	if x.Grad[0] != 2 {
		t.Fatalf("detach leaked gradient: got %v want 2", x.Grad[0])
	}
}

// numGrad computes the finite-difference gradient of f with respect to
// x's elements.
func numGrad(f func() float64, x *Tensor) []float64 {
	const h = 1e-6
	g := make([]float64, len(x.Data))
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + h
		fp := f()
		x.Data[i] = orig - h
		fm := f()
		x.Data[i] = orig
		g[i] = (fp - fm) / (2 * h)
	}
	return g
}

func checkGrad(t *testing.T, name string, f func() *Tensor, params ...*Tensor) {
	t.Helper()
	for _, p := range params {
		p.ZeroGrad()
	}
	out := f()
	out.Backward()
	for pi, p := range params {
		want := numGrad(func() float64 { return f().Item() }, p)
		for i := range want {
			got := 0.0
			if p.Grad != nil {
				got = p.Grad[i]
			}
			if math.Abs(got-want[i]) > 1e-4*(1+math.Abs(want[i])) {
				t.Fatalf("%s: param %d grad[%d]=%g want %g", name, pi, i, got, want[i])
			}
		}
	}
}

func randTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := Zeros(shape...)
	for i := range t.Data {
		t.Data[i] = rng.NormFloat64()
	}
	return t
}

func TestGradMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randTensor(rng, 3, 4).Param()
	b := randTensor(rng, 4, 2).Param()
	checkGrad(t, "matmul", func() *Tensor { return Sum(MatMul(a, b)) }, a, b)
}

func TestGradBroadcastOps(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := randTensor(rng, 3, 4).Param()
	b := randTensor(rng, 4).Param()
	checkGrad(t, "add", func() *Tensor { return Sum(Add(x, b)) }, x, b)
	checkGrad(t, "sub", func() *Tensor { return Sum(Sub(x, b)) }, x, b)
	checkGrad(t, "mul", func() *Tensor { return Sum(Mul(x, b)) }, x, b)
	// keep divisor away from zero
	d := Full(0, 4).Param()
	for i := range d.Data {
		d.Data[i] = 1.5 + rng.Float64()
	}
	checkGrad(t, "div", func() *Tensor { return Sum(Div(x, d)) }, x, d)
}

func TestGradUnaryOps(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randTensor(rng, 2, 5).Param()
	checkGrad(t, "tanh", func() *Tensor { return Sum(Tanh(x)) }, x)
	checkGrad(t, "square", func() *Tensor { return Sum(Square(x)) }, x)
	checkGrad(t, "neg", func() *Tensor { return Sum(Neg(x)) }, x)
	checkGrad(t, "scale", func() *Tensor { return Sum(Scale(x, 2.5)) }, x)
	checkGrad(t, "addscalar", func() *Tensor { return Sum(AddScalar(x, -1.25)) }, x)
	checkGrad(t, "exp", func() *Tensor { return Sum(Exp(x)) }, x)
	checkGrad(t, "mean", func() *Tensor { return Mean(Square(x)) }, x)

	// positive input for log
	p := Zeros(2, 5).Param()
	for i := range p.Data {
		p.Data[i] = 0.5 + rng.Float64()
	}
	checkGrad(t, "log", func() *Tensor { return Sum(Log(p)) }, p)

	// relu and clamp away from kinks
	k := Zeros(2, 5).Param()
	for i := range k.Data {
		k.Data[i] = rng.NormFloat64()
		if math.Abs(k.Data[i]) < 0.05 {
			k.Data[i] = 0.3
		}
	}
	checkGrad(t, "relu", func() *Tensor { return Sum(ReLU(k)) }, k)
	checkGrad(t, "clamp", func() *Tensor { return Sum(Clamp(k, -0.8, 0.8)) }, k)
}

func TestGradLayerNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randTensor(rng, 3, 6).Param()
	g := randTensor(rng, 6).Param()
	b := randTensor(rng, 6).Param()
	checkGrad(t, "layernorm", func() *Tensor {
		return Sum(Square(LayerNorm(x, g, b, 1e-5)))
	}, x, g, b)
}

func TestGradLogSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := randTensor(rng, 3, 4).Param()
	checkGrad(t, "logsoftmax", func() *Tensor {
		return Sum(Square(LogSoftmax(x)))
	}, x)
}

func TestGradGather(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := randTensor(rng, 3, 4).Param()
	checkGrad(t, "gather", func() *Tensor {
		return Sum(Square(GatherCols(x, []int{1, 3, 0})))
	}, x)
}

func TestGradMin(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randTensor(rng, 4).Param()
	b := randTensor(rng, 4).Param()
	// Separate values so finite differences don't cross the kink.
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) < 0.05 {
			b.Data[i] += 0.5
		}
	}
	checkGrad(t, "min", func() *Tensor { return Sum(Min(a, b)) }, a, b)
}

func TestGradSharedSubexpression(t *testing.T) {
	// y = x*x + x used twice; gradient should accumulate: dy/dx = 2x + 1.
	x := New([]float64{3}, 1).Param()
	y := Add(Mul(x, x), x)
	Sum(y).Backward()
	if math.Abs(x.Grad[0]-7) > 1e-12 {
		t.Fatalf("shared-subexpression grad=%v want 7", x.Grad[0])
	}
}

func TestBackwardRequiresScalar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Zeros(2, 2).Backward()
}

// Property: matmul distributes over addition, (A+B)@C == A@C + B@C.
func TestQuickMatMulDistributive(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(5), 1+r.Intn(5), 1+r.Intn(5)
		a, b, c := randTensor(r, m, k), randTensor(r, m, k), randTensor(r, k, n)
		lhs := MatMul(Add(a, b), c)
		rhs := Add(MatMul(a, c), MatMul(b, c))
		for i := range lhs.Data {
			if math.Abs(lhs.Data[i]-rhs.Data[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Sum(a)+Sum(b) == Sum(Add(a,b)) for same-shape tensors.
func TestQuickSumLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(32)
		a, b := randTensor(r, n), randTensor(r, n)
		return math.Abs(Sum(Add(a, b)).Item()-(Sum(a).Item()+Sum(b).Item())) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// Property: LayerNorm output rows have ~zero mean and ~unit variance with
// identity gain/zero bias.
func TestQuickLayerNormNormalizes(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		bN, d := 1+r.Intn(4), 2+r.Intn(8)
		x := randTensor(r, bN, d)
		// Scale rows so variance is non-trivial.
		for i := range x.Data {
			x.Data[i] = x.Data[i]*3 + 1
		}
		y := LayerNorm(x, Full(1, d), Zeros(d), 1e-8)
		for i := 0; i < bN; i++ {
			m, v := 0.0, 0.0
			for j := 0; j < d; j++ {
				m += y.Data[i*d+j]
			}
			m /= float64(d)
			for j := 0; j < d; j++ {
				dv := y.Data[i*d+j] - m
				v += dv * dv
			}
			v /= float64(d)
			if math.Abs(m) > 1e-6 || math.Abs(v-1) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}
