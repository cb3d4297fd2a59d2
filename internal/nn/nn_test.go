package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

func randSlice(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func TestLinearForwardShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := linear{in: 4, out: 3, w: 0, b: 12}
	p, x := randSlice(rng, 15), randSlice(rng, 5*4)
	out := make([]float64, 5*3)
	linearFwd(out, x, p, l, 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			for k := 0; k < 4; k++ {
				want += x[i*4+k] * p[k*3+j]
			}
			if want += p[12+j]; out[i*3+j] != want {
				t.Fatalf("out[%d,%d]=%v want %v", i, j, out[i*3+j], want)
			}
		}
	}
}

func TestLinearXavierInitBounds(t *testing.T) {
	nt := NewNet(64, 64, 64, 1, true)
	p := randSlice(rand.New(rand.NewSource(2)), nt.Size())
	nt.Init(p, rand.New(rand.NewSource(2)))
	limit := math.Sqrt(6.0 / 128.0)
	for _, l := range []linear{nt.embed, nt.blocks[0].fc1, nt.blocks[0].fc2, nt.head} {
		for _, w := range p[l.w:l.b] {
			if w == 0 || math.Abs(w) > limit {
				t.Fatalf("weight %v outside Xavier bound %v", w, limit)
			}
		}
		for _, b := range p[l.b : l.b+l.out] {
			if b != 0 {
				t.Fatal("bias should start at zero")
			}
		}
	}
	for _, g := range p[nt.blocks[0].gain1 : nt.blocks[0].gain1+64] {
		if g != 1 {
			t.Fatal("LayerNorm gain should start at one")
		}
	}
}

// zeroBlockLinears zeroes both Linear layers of every residual block.
func zeroBlockLinears(nt *Net, p []float64) {
	for _, b := range nt.blocks {
		clear(p[b.fc1.w : b.fc1.b+b.fc1.out])
		clear(p[b.fc2.w : b.fc2.b+b.fc2.out])
	}
}

func TestResidualBlockPreservesShapeAndSkips(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nt := NewNet(8, 8, 2, 1, true)
	p := make([]float64, nt.Size())
	nt.Init(p, rng)
	x := randSlice(rng, 2*8)
	if out := nt.Forward(p, x, 2); len(out) != 2*2 {
		t.Fatalf("output length %d", len(out))
	}
	// With both linear layers zero, the output must equal the input via
	// the skip (the second LayerNorm of a zero vector is its zero bias).
	zeroBlockLinears(nt, p)
	nt.Forward(p, x, 2)
	for i, v := range nt.y[0][:16] {
		if v != nt.h0[i] {
			t.Fatalf("skip connection broken: %v vs %v", v, nt.h0[i])
		}
	}
}

func TestTanhResidualBlockSkip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	nt := NewNet(6, 6, 1, 1, false)
	p := make([]float64, nt.Size())
	nt.Init(p, rng)
	zeroBlockLinears(nt, p)
	nt.Forward(p, randSlice(rng, 3*6), 3)
	for i, v := range nt.y[0][:18] {
		if v != nt.h0[i] {
			t.Fatal("tanh residual skip broken")
		}
	}
}

// The network is its layers composed in sequence: embedding, tanh,
// blocks, the policy's closing tanh, head.
func TestSequentialComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := randSlice(rng, 4*3)
	for _, norm := range []bool{false, true} {
		nt := NewNet(3, 8, 2, 0, norm)
		p := make([]float64, nt.Size())
		nt.Init(p, rng)
		h := make([]float64, 4*8)
		linearFwd(h, x, p, nt.embed, 4)
		tanhFwd(h)
		if norm {
			tanhFwd(h)
		}
		want := make([]float64, 4*2)
		linearFwd(want, h, p, nt.head, 4)
		for i, v := range nt.Forward(p, x, 4) {
			if v != want[i] {
				t.Fatalf("norm=%v: out[%d]=%v want %v", norm, i, v, want[i])
			}
		}
	}
}

// Train a tiny residual MLP on a nonlinear regression task; Adam should
// drive the loss down by >90%.
func TestAdamConvergesOnRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	nt := NewNet(2, 16, 1, 1, true)
	p, grad := make([]float64, nt.Size()), make([]float64, nt.Size())
	nt.Init(p, rng)
	const n = 64
	x, y := make([]float64, 2*n), make([]float64, n)
	for i := 0; i < n; i++ {
		a, b := rng.Float64()*2-1, rng.Float64()*2-1
		x[2*i], x[2*i+1], y[i] = a, b, math.Sin(2*a)+0.5*b*b
	}
	opt := NewAdam(len(p), 1e-2)
	dOut := make([]float64, n)
	loss := func() float64 {
		s := 0.0
		for i, v := range nt.Forward(p, x, n) {
			s += (v - y[i]) * (v - y[i])
			dOut[i] = 2 * (v - y[i]) / n
		}
		return s / n
	}
	first := loss()
	for i := 0; i < 300; i++ {
		loss()
		clear(grad)
		nt.Backward(p, grad, dOut)
		opt.Step(p, grad)
	}
	if last := loss(); last > first*0.1 {
		t.Fatalf("Adam failed to converge: first=%v last=%v", first, last)
	}
}

func TestAdamGradClipping(t *testing.T) {
	p, grad := []float64{0}, []float64{100}
	opt := NewAdam(1, 0.1)
	opt.MaxNorm = 1
	if got := GradNorm(grad); got != 100 {
		t.Fatalf("GradNorm=%v", got)
	}
	opt.Step(p, grad)
	// Adam's step is ~lr with or without clipping, so check that the
	// moment saw the clipped gradient: m = (1−β₁)·g_clipped = 0.1·1.
	if math.Abs(opt.m[0]-0.1) > 1e-9 {
		t.Fatalf("moment buffer %v suggests clipping not applied", opt.m[0])
	}
}

func TestAdamBiasCorrectionFirstStep(t *testing.T) {
	// With constant gradient g, the bias-corrected first Adam step is
	// exactly lr·g/(|g|+eps) ≈ lr·sign(g).
	p := []float64{1}
	NewAdam(1, 0.01).Step(p, []float64{5})
	if math.Abs((1-p[0])-0.01) > 1e-6 {
		t.Fatalf("first step moved %v want ≈0.01", 1-p[0])
	}
}

// A parameter the loss does not reach (a zero gradient) stays put.
func TestAdamSkipsNilGradients(t *testing.T) {
	p := []float64{1, 2}
	NewAdam(2, 0.1).Step(p, []float64{1, 0})
	if p[1] != 2 {
		t.Fatalf("parameter without gradient moved to %v", p[1])
	}
	if p[0] == 1 {
		t.Fatal("parameter with gradient did not move")
	}
}

// gaussian builds a Gaussian PPO over 3-feature states and 2 actions
// whose log-stds are logStd.
func gaussian(seed int64, logStd ...float64) *PPO {
	p := NewPPO(3, 8, 1, 1, 2, false, rand.New(rand.NewSource(seed)))
	copy(p.Params[p.Policy.Size():p.pol], logStd)
	p.SyncOld()
	return p
}

func batch(rng *rand.Rand, n, in, out int) *Batch {
	b := &Batch{}
	b.Resize(n, in, out)
	copy(b.States, randSlice(rng, n*in))
	copy(b.Actions, randSlice(rng, n*out))
	copy(b.Returns, randSlice(rng, n))
	for i := range b.Choices {
		b.Choices[i] = rng.Intn(max(out, 1))
	}
	return b
}

func TestGaussianLogProbMatchesClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := gaussian(7, math.Log(0.7), math.Log(1.3))
	b := batch(rng, 2, 3, 2)
	p.reserve(b.N)
	p.logProbs(p.lp, p.Params, b)
	lp := p.lp[:b.N]
	mean := p.Policy.Forward(p.Params, b.States, 2)
	for i := 0; i < 2; i++ {
		want := 0.0
		for j, s := range []float64{0.7, 1.3} {
			want += -0.5*math.Pow((b.Actions[i*2+j]-mean[i*2+j])/s, 2) - math.Log(s) - 0.5*math.Log(2*math.Pi)
		}
		if math.Abs(lp[i]-want) > 1e-12 {
			t.Fatalf("row %d logprob=%v want %v", i, lp[i], want)
		}
	}
}

// entropyOf reads the entropy term of the loss: the loss at entropy
// coefficient 0 minus the loss at 1.
func entropyOf(p *PPO, b *Batch) float64 {
	p.reserve(b.N)
	p.logProbs(p.oldLP, p.Old, b)
	return p.gradient(b, 0) - p.gradient(b, 1)
}

func TestGaussianEntropyClosedForm(t *testing.T) {
	p := gaussian(8, 0, math.Log(2))
	got := entropyOf(p, batch(rand.New(rand.NewSource(8)), 3, 3, 2))
	want := 0.0
	for _, s := range []float64{1, 2} {
		want += math.Log(s) + 0.5*math.Log(2*math.Pi*math.E)
	}
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("entropy=%v want %v", got, want)
	}
}

func TestGaussianHeadSampleStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	p := gaussian(8, math.Log(0.5), math.Log(0.5))
	state := randSlice(rng, 3)
	mean := append([]float64(nil), p.Mean(state)...)
	const n = 4000
	var sum, sumSq [2]float64
	for i := 0; i < n; i++ {
		for j, a := range p.Sample(state, rng) {
			sum[j] += a
			sumSq[j] += a * a
		}
	}
	for j := 0; j < 2; j++ {
		m := sum[j] / n
		v := sumSq[j]/n - m*m
		if math.Abs(m-mean[j]) > 0.05 {
			t.Fatalf("sample mean %v far from %v", m, mean[j])
		}
		if math.Abs(math.Sqrt(v)-0.5) > 0.05 {
			t.Fatalf("sample std %v far from 0.5", math.Sqrt(v))
		}
	}
}

func TestLogStdClampRespected(t *testing.T) {
	p := gaussian(9, 10 /* absurdly large */, -10)
	p.setStd(p.Params)
	if p.std[0] != math.Exp(logStdMax) || p.std[1] != math.Exp(logStdMin) {
		t.Fatalf("std %v escapes the clamp [e^%v, e^%v]", p.std, logStdMin, logStdMax)
	}
}

func TestCategoricalHeadSamplesAllActions(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	p := NewPPO(2, 8, 1, 1, 4, true, rng)
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		seen[p.Choose([]float64{0, 0}, rng)] = true
	}
	if len(seen) < 2 {
		t.Fatalf("categorical sampling too degenerate: %v", seen)
	}
	for a := range seen {
		if a < 0 || a >= 4 {
			t.Fatalf("action %d out of range", a)
		}
	}
}

func TestCategoricalEntropyUniformIsLogN(t *testing.T) {
	p := NewPPO(2, 8, 1, 1, 4, true, rand.New(rand.NewSource(11)))
	clear(p.Params[p.Policy.head.w:p.pol]) // uniform logits
	p.SyncOld()
	got := entropyOf(p, batch(rand.New(rand.NewSource(11)), 2, 2, 4))
	if math.Abs(got-math.Log(4)) > 1e-12 {
		t.Fatalf("entropy=%v want %v", got, math.Log(4))
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	src := gaussian(11, 0.1, 0.2)
	dst := gaussian(12)
	var buf bytes.Buffer
	if err := SaveParams(&buf, src.Tensors()); err != nil {
		t.Fatal(err)
	}
	if err := LoadParams(&buf, dst.Tensors()); err != nil {
		t.Fatal(err)
	}
	for i, v := range src.Params {
		if dst.Params[i] != v {
			t.Fatal("loaded model differs from saved model")
		}
	}
}

func TestLoadParamsArchMismatch(t *testing.T) {
	src := NewPPO(3, 5, 1, 1, 2, false, rand.New(rand.NewSource(12)))
	dst := NewPPO(3, 6, 1, 1, 2, false, rand.New(rand.NewSource(12)))
	var buf bytes.Buffer
	if err := SaveParams(&buf, src.Tensors()); err != nil {
		t.Fatal(err)
	}
	if err := LoadParams(&buf, dst.Tensors()); err == nil {
		t.Fatal("expected error for architecture mismatch")
	}
}

// π_θold is a copy of the policy's parameters, not an alias.
func TestCopyParams(t *testing.T) {
	p := gaussian(13)
	p.Update(batch(rand.New(rand.NewSource(13)), 4, 3, 2), 2, 0.1)
	for i, v := range p.Old {
		if p.Params[i] != v {
			t.Fatal("π_θold does not hold the updated policy")
		}
	}
	p.Params[0] += 1
	if p.Old[0] == p.Params[0] {
		t.Fatal("π_θold aliases the policy")
	}
}

// Every parameter tensor of both heads' networks gets a gradient, and the
// checkpoint's tensors tile the slab in order.
func TestGradientFlowsThroughWholeNetwork(t *testing.T) {
	for _, categorical := range []bool{false, true} {
		p := NewPPO(4, 8, 2, 2, 3, categorical, rand.New(rand.NewSource(14)))
		p.Update(batch(rand.New(rand.NewSource(14)), 2, 4, 3), 1, 0.1)
		off := 0
		for i, ts := range p.Tensors() {
			if &ts[0] != &p.Params[off] {
				t.Fatalf("tensor %d is not at slab offset %d", i, off)
			}
			nonzero := false
			for _, g := range p.Grad[off : off+len(ts)] {
				nonzero = nonzero || g != 0
			}
			if !nonzero {
				t.Fatalf("categorical=%v: tensor %d got no gradient", categorical, i)
			}
			off += len(ts)
		}
		if off != len(p.Params) {
			t.Fatalf("tensors cover %d of %d parameters", off, len(p.Params))
		}
	}
}
