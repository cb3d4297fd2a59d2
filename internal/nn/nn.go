// Package nn holds the fixed-shape forward and backward kernels of
// AutoMDT's PPO networks (§IV-D of the paper) and of their training step:
// the Linear layer, the LayerNorm+ReLU residual block of the policy trunk,
// the tanh residual block of the value trunk, the Gaussian head with its
// clamped log-std, the log-softmax categorical head of the Fig. 4
// ablation, the PPO clipped loss, and Adam with global-norm clipping.
//
// Each network's parameters are one flat slab, and activations and
// gradients are buffers preallocated per network, so a warmed-up update
// allocates nothing. The kernels reproduce, bit for bit, the tape-based
// autograd they replaced: every sum runs in the order the tape ran it.
// That tape survives only in internal/tensor's tests, as the oracle that
// TestKernelsMatchTape compares these kernels against.
package nn

import (
	"math"
	"math/rand"
)

// lnEps is the LayerNorm variance floor.
const lnEps = 1e-5

// linear locates one fully connected layer y = x·W + b inside a slab: W
// is in×out row-major at offset w, b is out long at offset b.
type linear struct{ in, out, w, b int }

// block locates one residual block's parameters. The LayerNorm gains and
// biases exist only in a policy block.
type block struct {
	fc1, fc2                   linear
	gain1, bias1, gain2, bias2 int
}

// Net is one network of a fixed shape: a Linear embedding of In inputs
// to Hidden units with tanh, Blocks width-preserving residual blocks, and
// a Linear head of Out units. A policy network (Norm set) uses the
// §IV-D-3 block, Linear→LayerNorm→ReLU→Linear→LayerNorm plus the skip,
// and a tanh before its head. The value network uses the §IV-D-4 block,
// Linear→tanh→Linear→tanh plus the skip, and feeds the last block to its
// head directly.
//
// The parameters live in a caller's slab, in the order the checkpoints
// list them: embedding W, b; per block fc1 W, b, [LayerNorm gain, bias,]
// fc2 W, b, [gain, bias]; head W, b. Net owns the activations of its
// last Forward, which Backward reads.
type Net struct {
	In, Hidden, Out, Blocks int
	Norm                    bool

	embed, head linear
	blocks      []block
	size        int

	n    int         // rows of the last Forward
	x    []float64   // its input
	h0   []float64   // tanh embedding
	a, y [][]float64 // per block: fc2's input and the block output
	t    [][]float64 // per tanh block: its second tanh
	xh   [][]float64 // per norm block: x̂ of both LayerNorms
	inv  [][]float64 // per norm block: 1/σ of both LayerNorms
	f    []float64   // the policy trunk's closing tanh
	feat []float64   // the head's input: f, or the value trunk's output
	out  []float64
	g    [3][]float64 // Backward's work buffers, n×Hidden each
}

// NewNet lays out a network of the given shape.
func NewNet(in, hidden, out, blocks int, norm bool) *Net {
	nt := &Net{In: in, Hidden: hidden, Out: out, Blocks: blocks, Norm: norm}
	lin := func(in, out int) linear {
		l := linear{in: in, out: out, w: nt.size, b: nt.size + in*out}
		nt.size += in*out + out
		return l
	}
	vec := func() int {
		nt.size += hidden
		return nt.size - hidden
	}
	nt.embed = lin(in, hidden)
	for i := 0; i < blocks; i++ {
		var b block
		b.fc1 = lin(hidden, hidden)
		if norm {
			b.gain1, b.bias1 = vec(), vec()
		}
		b.fc2 = lin(hidden, hidden)
		if norm {
			b.gain2, b.bias2 = vec(), vec()
		}
		nt.blocks = append(nt.blocks, b)
	}
	nt.head = lin(hidden, out)
	return nt
}

// Size is the network's parameter count.
func (nt *Net) Size() int { return nt.size }

// Init fills p with fresh parameters: Xavier-uniform weights drawn from
// rng layer by layer, each W row-major, zero biases and unit LayerNorm
// gains.
func (nt *Net) Init(p []float64, rng *rand.Rand) {
	clear(p[:nt.size])
	xavier := func(l linear) {
		limit := math.Sqrt(6.0 / float64(l.in+l.out))
		for i := l.w; i < l.w+l.in*l.out; i++ {
			p[i] = (rng.Float64()*2 - 1) * limit
		}
	}
	xavier(nt.embed)
	for _, b := range nt.blocks {
		xavier(b.fc1)
		xavier(b.fc2)
		if nt.Norm {
			for i := 0; i < nt.Hidden; i++ {
				p[b.gain1+i], p[b.gain2+i] = 1, 1
			}
		}
	}
	xavier(nt.head)
}

// Tensors splits p into the parameter tensors in checkpoint order.
func (nt *Net) Tensors(p []float64) [][]float64 {
	var ts [][]float64
	lin := func(l linear) { ts = append(ts, p[l.w:l.b], p[l.b:l.b+l.out]) }
	vec := func(o int) { ts = append(ts, p[o:o+nt.Hidden]) }
	lin(nt.embed)
	for _, b := range nt.blocks {
		lin(b.fc1)
		if nt.Norm {
			vec(b.gain1)
			vec(b.bias1)
		}
		lin(b.fc2)
		if nt.Norm {
			vec(b.gain2)
			vec(b.bias2)
		}
	}
	lin(nt.head)
	return ts
}

// reserve sizes the activation buffers for n rows; they only grow.
func (nt *Net) reserve(n int) {
	nt.n = n
	if len(nt.h0) >= n*nt.Hidden {
		return
	}
	hn, k := n*nt.Hidden, nt.Blocks
	nt.h0, nt.f, nt.out = make([]float64, hn), make([]float64, hn), make([]float64, n*nt.Out)
	for i := range nt.g {
		nt.g[i] = make([]float64, hn)
	}
	nt.a, nt.y, nt.t = grid(k, hn), grid(k, hn), grid(k, hn)
	nt.xh, nt.inv = grid(2*k, hn), grid(2*k, n)
}

func grid(k, n int) [][]float64 {
	g := make([][]float64, k)
	for i := range g {
		g[i] = make([]float64, n)
	}
	return g
}

// Forward runs n rows of x through the network with parameters p and
// returns the head output, n×Out, valid until the next Forward.
func (nt *Net) Forward(p, x []float64, n int) []float64 {
	nt.reserve(n)
	nt.x = x
	hn, d := n*nt.Hidden, nt.Hidden
	h := nt.h0[:hn]
	linearFwd(h, x, p, nt.embed, n)
	tanhFwd(h)
	for k, b := range nt.blocks {
		a, y := nt.a[k][:hn], nt.y[k][:hn]
		linearFwd(a, h, p, b.fc1, n)
		if nt.Norm {
			layerNormFwd(a, nt.xh[2*k], nt.inv[2*k], p[b.gain1:], p[b.bias1:], n, d)
			for i, v := range a {
				a[i] = math.Max(0, v)
			}
			linearFwd(y, a, p, b.fc2, n)
			layerNormFwd(y, nt.xh[2*k+1], nt.inv[2*k+1], p[b.gain2:], p[b.bias2:], n, d)
		} else {
			tanhFwd(a)
			t := nt.t[k][:hn]
			linearFwd(t, a, p, b.fc2, n)
			tanhFwd(t)
			copy(y, t)
		}
		for i := range y {
			y[i] += h[i]
		}
		h = y
	}
	nt.feat = h
	if nt.Norm {
		nt.feat = nt.f[:hn]
		for i, v := range h {
			nt.feat[i] = math.Tanh(v)
		}
	}
	out := nt.out[:n*nt.Out]
	linearFwd(out, nt.feat, p, nt.head, n)
	return out
}

// Backward adds to grad (laid out like p) the gradient of a loss whose
// gradient with respect to the last Forward's output is dOut. Like the
// tape, it accumulates each parameter's gradient over the rows in order,
// so two calls add the second pass's rows after the first's.
func (nt *Net) Backward(p, grad, dOut []float64) {
	n, d := nt.n, nt.Hidden
	hn := n * d
	g, s, dz := nt.g[0][:hn], nt.g[1][:hn], nt.g[2][:hn]
	linearBwd(g, nt.feat, dOut, p, grad, nt.head, n)
	if nt.Norm {
		tanhBwd(g, nt.feat)
	}
	// g is the gradient at the output of block k; walk the blocks back.
	for k := nt.Blocks - 1; k >= 0; k-- {
		b, a := nt.blocks[k], nt.a[k][:hn]
		in := nt.h0[:hn]
		if k > 0 {
			in = nt.y[k-1][:hn]
		}
		copy(dz, g)
		if nt.Norm {
			layerNormBwd(dz, nt.xh[2*k+1], nt.inv[2*k+1], p[b.gain2:], grad[b.gain2:], grad[b.bias2:], n, d)
			linearBwd(s, a, dz, p, grad, b.fc2, n)
			for i, v := range a {
				if !(v > 0) {
					s[i] *= 0 // not = 0: NaN propagates as on the tape
				}
			}
			layerNormBwd(s, nt.xh[2*k], nt.inv[2*k], p[b.gain1:], grad[b.gain1:], grad[b.bias1:], n, d)
		} else {
			tanhBwd(dz, nt.t[k][:hn])
			linearBwd(s, a, dz, p, grad, b.fc2, n)
			tanhBwd(s, a)
		}
		// The block input's gradient: the skip's, g, plus fc1's.
		linearBwd(dz, in, s, p, grad, b.fc1, n)
		for i, v := range dz {
			g[i] += v
		}
	}
	tanhBwd(g, nt.h0[:hn])
	linearBwd(nil, nt.x, g, p, grad, nt.embed, n)
}
