package tensor

import (
	"math"
	"math/rand"
	"testing"

	"automdt/internal/nn"
)

// TestKernelsMatchTape holds internal/nn's fixed-shape PPO kernels to the
// tape-era agent bit for bit, over seeded random draws covering both
// heads, Hidden ∈ {4, 32} and policy/value blocks ∈ {1, 2}: the initial
// parameters, sampling, and, over successive updates, every parameter
// gradient, the loss, and the parameters after Adam must be equal with ==.
func TestKernelsMatchTape(t *testing.T) {
	n := int64(200)
	if testing.Short() {
		n = 32
	}
	for seed := int64(1); seed <= n; seed++ {
		kernelsMatchTape(t, seed)
	}
}

func FuzzKernelsMatchTape(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 4} {
		f.Add(seed)
	}
	f.Fuzz(kernelsMatchTape)
}

func kernelsMatchTape(t *testing.T, seed int64) {
	categorical := seed%2 == 0
	hidden := []int{4, 32}[(seed>>1)&1]
	pb, vb := 1+int((seed>>2)&1), 1+int((seed>>3)&1)
	r := rand.New(rand.NewSource(seed))
	in := 1 + r.Intn(10)
	out := 1 + r.Intn(4)
	if categorical {
		out = 2 + r.Intn(30)
	}
	k := nn.NewPPO(in, hidden, pb, vb, out, categorical, rand.New(rand.NewSource(seed)))
	o := newAgent(in, hidden, pb, vb, out, categorical, rand.New(rand.NewSource(seed)))
	ps := o.params()
	where := func(what string) string {
		return what + " (" + map[bool]string{true: "categorical", false: "Gaussian"}[categorical] + ")"
	}
	same(t, seed, where("initial parameters"), k.Params, ps, data)
	same(t, seed, where("initial π_θold"), k.Old, o.old.params(), data)

	// Push some log-stds past the clamp, so its gradient mask is exercised.
	if !categorical && r.Intn(2) == 0 {
		ls := o.pol.logStd.Data
		for j := range ls {
			ls[j] = -4 + 5.5*r.Float64()
		}
		copy(k.Params[len(k.Old)-out:], ls)
		o.syncOld()
		k.SyncOld()
	}

	lr := math.Pow(10, -4+2.5*r.Float64())
	k.Adam.Reset(lr)
	o.opt.LR = lr
	for u := 0; u < 3; u++ {
		n := 1 + r.Intn(12)
		b := nn.Batch{N: n, States: make([]float64, n*in), Actions: make([]float64, n*out),
			Choices: make([]int, n), Returns: make([]float64, n)}
		for i := range b.States {
			if r.Intn(5) > 0 { // exact zeros exercise the skipped products
				b.States[i] = r.NormFloat64()
			}
		}
		for i := range b.Actions {
			b.Actions[i] = r.NormFloat64()
		}
		for i := range b.Choices {
			b.Choices[i] = r.Intn(out)
		}
		scale := math.Pow(10, 2*r.Float64()-0.5) // large returns trip the norm clip
		for i := range b.Returns {
			b.Returns[i] = scale * r.NormFloat64()
		}
		epochs := 1 + r.Intn(3)
		ec := []float64{0.1, 0.01, 0}[r.Intn(3)]

		states, actions := New(append([]float64(nil), b.States...), n, in), New(append([]float64(nil), b.Actions...), n, out)
		want := o.update(states, actions, b.Choices, b.Returns, epochs, ec)
		got := k.Update(&b, epochs, ec)
		if !eq(got, want) {
			t.Fatalf("seed %d update %d: %s loss %v, tape %v", seed, u, where(""), got, want)
		}
		same(t, seed, where("gradient"), k.Grad, ps, grad)
		same(t, seed, where("parameters after Adam"), k.Params, ps, data)
		same(t, seed, where("π_θold"), k.Old, o.old.params(), data)

		state := b.States[:in]
		sk, so := rand.New(rand.NewSource(seed+int64(u))), rand.New(rand.NewSource(seed+int64(u)))
		wantA := o.pol.sample(state, so)
		if categorical {
			if c := k.Choose(state, sk); float64(c) != wantA[0] {
				t.Fatalf("seed %d: choice %d, tape %v", seed, c, wantA[0])
			}
			continue
		}
		mean := o.pol.forward(New(append([]float64(nil), state...), 1, in))
		for j, m := range k.Mean(state) {
			if !eq(m, mean.Data[j]) {
				t.Fatalf("seed %d: mean[%d] %v, tape %v", seed, j, m, mean.Data[j])
			}
		}
		for j, a := range k.Sample(state, sk) {
			if !eq(a, wantA[j]) {
				t.Fatalf("seed %d: sample[%d] %v, tape %v", seed, j, a, wantA[j])
			}
		}
	}
}

// eq is ==, except that NaN equals NaN: a draw may drive both sides to
// the same overflow.
func eq(a, b float64) bool { return a == b || a != a && b != b }

func data(p *Tensor) []float64 { return p.Data }
func grad(p *Tensor) []float64 { return p.Grad }

// same requires the slab to equal the tensors' values, concatenated.
func same(t *testing.T, seed int64, what string, slab []float64, ts []*Tensor, of func(*Tensor) []float64) {
	t.Helper()
	off := 0
	for i, p := range ts {
		for j, v := range of(p) {
			if off >= len(slab) || !eq(slab[off], v) {
				t.Fatalf("seed %d: %s: tensor %d element %d is %v, tape %v", seed, what, i, j, slab[min(off, len(slab)-1)], v)
			}
			off++
		}
	}
	if off != len(slab) {
		t.Fatalf("seed %d: %s: slab has %d values, tape %d", seed, what, len(slab), off)
	}
}
