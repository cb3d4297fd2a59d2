package tensor

import (
	"math"
	"math/rand"
)

// This file is the tape-era PPO agent, op for op as internal/nn and
// internal/rl built it on this tape before the fixed-shape kernels
// replaced it: the networks, the Gaussian and categorical heads, the PPO
// update and Adam. TestKernelsMatchTape holds the kernels to it.

const log2Pi = 1.8378770664093453

type linear struct{ W, B *Tensor }

func newLinear(in, out int, rng *rand.Rand) *linear {
	w := Zeros(in, out)
	limit := math.Sqrt(6.0 / float64(in+out))
	for i := range w.Data {
		w.Data[i] = (rng.Float64()*2 - 1) * limit
	}
	return &linear{W: w.Param(), B: Zeros(out).Param()}
}

func (l *linear) forward(x *Tensor) *Tensor { return Add(MatMul(x, l.W), l.B) }

// block is a policy residual block (norms set) or a value one.
type block struct {
	fc1, fc2 *linear
	n1, n2   [2]*Tensor // LayerNorm gain, bias
}

// net is Linear→tanh→blocks→[tanh]→head; a policy net has LayerNorm
// blocks and the closing tanh, and a Gaussian one its log-std.
type net struct {
	embed  *linear
	blocks []block
	head   *linear
	policy bool
	logStd *Tensor
}

func newNet(in, hidden, out, blocks int, policy, gaussian bool, rng *rand.Rand) *net {
	norm := func() [2]*Tensor { return [2]*Tensor{Full(1, hidden).Param(), Zeros(hidden).Param()} }
	n := &net{embed: newLinear(in, hidden, rng), policy: policy}
	for i := 0; i < blocks; i++ {
		var b block
		b.fc1 = newLinear(hidden, hidden, rng)
		if policy {
			b.n1 = norm()
		}
		b.fc2 = newLinear(hidden, hidden, rng)
		if policy {
			b.n2 = norm()
		}
		n.blocks = append(n.blocks, b)
	}
	n.head = newLinear(hidden, out, rng)
	if gaussian {
		n.logStd = Full(math.Log(0.3), out).Param()
	}
	return n
}

// params lists the parameters in checkpoint order.
func (n *net) params() []*Tensor {
	ps := []*Tensor{n.embed.W, n.embed.B}
	for _, b := range n.blocks {
		ps = append(ps, b.fc1.W, b.fc1.B)
		if n.policy {
			ps = append(ps, b.n1[0], b.n1[1])
		}
		ps = append(ps, b.fc2.W, b.fc2.B)
		if n.policy {
			ps = append(ps, b.n2[0], b.n2[1])
		}
	}
	ps = append(ps, n.head.W, n.head.B)
	if n.logStd != nil {
		ps = append(ps, n.logStd)
	}
	return ps
}

// features runs the trunk: everything before the head.
func (n *net) features(x *Tensor) *Tensor {
	x = Tanh(n.embed.forward(x))
	for _, b := range n.blocks {
		var h *Tensor
		if n.policy {
			h = ReLU(LayerNorm(b.fc1.forward(x), b.n1[0], b.n1[1], 1e-5))
			h = LayerNorm(b.fc2.forward(h), b.n2[0], b.n2[1], 1e-5)
		} else {
			h = Tanh(b.fc1.forward(x))
			h = Tanh(b.fc2.forward(h))
		}
		x = Add(h, x)
	}
	if n.policy {
		x = Tanh(x)
	}
	return x
}

func (n *net) forward(x *Tensor) *Tensor { return n.head.forward(n.features(x)) }

// std is exp(clamp(log-std)), a fresh node on every call.
func (n *net) std() *Tensor { return Exp(Clamp(n.logStd, -3, 0.7)) }

func (n *net) gaussianLogProb(states, actions *Tensor) *Tensor {
	mean, std := n.forward(states), n.std()
	z := Div(Sub(actions, mean), std)
	perDim := Scale(Square(z), -0.5)
	perDim = Sub(perDim, Log(std))
	perDim = AddScalar(perDim, -0.5*log2Pi)
	return SumRows(perDim)
}

func (n *net) categoricalLogProb(states *Tensor, idx []int) *Tensor {
	return GatherCols(LogSoftmax(n.forward(states)), idx)
}

func (n *net) entropy(states *Tensor) *Tensor {
	if n.logStd != nil {
		return Sum(AddScalar(Log(n.std()), 0.5*(log2Pi+1)))
	}
	lp := LogSoftmax(n.forward(states))
	return Neg(Mean(SumRows(Mul(Exp(lp), lp))))
}

// sample draws like the tape-era agents did: a Gaussian action vector, or
// the index of a categorical choice in the first element.
func (n *net) sample(state []float64, rng *rand.Rand) []float64 {
	x := New(append([]float64(nil), state...), 1, len(state))
	if n.logStd == nil {
		lp := LogSoftmax(n.forward(x))
		u := rng.Float64()
		acc := 0.0
		for j := 0; j < lp.Cols(); j++ {
			acc += math.Exp(lp.Data[j])
			if u <= acc {
				return []float64{float64(j)}
			}
		}
		return []float64{float64(lp.Cols() - 1)}
	}
	mean, std := n.forward(x), n.std()
	a := make([]float64, mean.Cols())
	for j := range a {
		a[j] = mean.Data[j] + std.Data[j]*rng.NormFloat64()
	}
	return a
}

type adam struct {
	LR, Beta1, Beta2, Eps, MaxNorm float64

	params []*Tensor
	m, v   [][]float64
	t      int
}

func newAdam(params []*Tensor, lr float64) *adam {
	a := &adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, MaxNorm: 5, params: params}
	for _, p := range params {
		a.m = append(a.m, make([]float64, p.Len()))
		a.v = append(a.v, make([]float64, p.Len()))
	}
	return a
}

func (a *adam) step() {
	scale := 1.0
	s := 0.0
	for _, p := range a.params {
		for _, g := range p.Grad {
			s += g * g
		}
	}
	if n := math.Sqrt(s); n > a.MaxNorm {
		scale = a.MaxNorm / (n + 1e-12)
	}
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, p := range a.params {
		if p.Grad == nil {
			continue
		}
		m, v := a.m[i], a.v[i]
		for j := range p.Data {
			g := p.Grad[j] * scale
			m[j] = a.Beta1*m[j] + (1-a.Beta1)*g
			v[j] = a.Beta2*v[j] + (1-a.Beta2)*g*g
			mHat := m[j] / bc1
			vHat := v[j] / bc2
			p.Data[j] -= a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
		}
	}
}

// agent is the tape-era actor-critic: policy, value, π_θold and Adam.
type agent struct {
	pol, val, old *net
	opt           *adam
}

// newAgent draws the networks in the tape-era order: policy, value,
// then π_θold, which then takes the policy's parameters.
func newAgent(in, hidden, policyBlocks, valueBlocks, out int, categorical bool, rng *rand.Rand) *agent {
	a := &agent{
		pol: newNet(in, hidden, out, policyBlocks, true, !categorical, rng),
		val: newNet(in, hidden, 1, valueBlocks, false, false, rng),
		old: newNet(in, hidden, out, policyBlocks, true, !categorical, rng),
	}
	a.syncOld()
	a.opt = newAdam(a.params(), 0)
	return a
}

func (a *agent) params() []*Tensor { return append(a.pol.params(), a.val.params()...) }

func (a *agent) syncOld() {
	for i, p := range a.pol.params() {
		copy(a.old.params()[i].Data, p.Data)
	}
}

func (a *agent) logProb(n *net, states, actions *Tensor, idx []int) *Tensor {
	if n.logStd == nil {
		return n.categoricalLogProb(states, idx)
	}
	return n.gaussianLogProb(states, actions)
}

// update is the tape-era Algorithm 2 update; it returns the last
// epoch's loss.
func (a *agent) update(states, actions *Tensor, idx []int, returns []float64, epochs int, entropyCoef float64) float64 {
	clip, criticCoef := 0.2, 0.5
	returnsT := New(append([]float64(nil), returns...), len(returns), 1)
	oldLP := a.logProb(a.old, states, actions, idx).Clone()
	loss := 0.0
	for epoch := 0; epoch < epochs; epoch++ {
		for _, p := range a.opt.params {
			p.ZeroGrad()
		}
		newLP := a.logProb(a.pol, states, actions, idx)
		values := a.val.forward(states)
		adv := Sub(returnsT, values.Detach().Clone())
		ratio := Exp(Sub(newLP, oldLP))
		surr1 := Mul(ratio, adv)
		surr2 := Mul(Clamp(ratio, 1-clip, 1+clip), adv)
		actorLoss := Neg(Mean(Min(surr1, surr2)))
		criticLoss := Scale(Mean(Square(Sub(returnsT, values))), criticCoef)
		l := Sub(Add(actorLoss, criticLoss), Scale(a.pol.entropy(states), entropyCoef))
		l.Backward()
		loss = l.Item()
		a.opt.step()
	}
	a.syncOld()
	return loss
}
