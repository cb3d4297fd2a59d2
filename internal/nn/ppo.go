package nn

import (
	"math"
	"math/rand"
)

// The PPO objective's constants (§IV-D, Algorithm 2).
const (
	// Clip is the PPO clipping threshold ϵ.
	Clip = 0.2
	// CriticCoef weights the value loss.
	CriticCoef = 0.5
	// InitLogStd is the Gaussian head's starting log standard deviation,
	// log(0.3): actions are normalized by maxThreads, so σ = 0.3 explores
	// roughly a third of the concurrency range.
	InitLogStd = -1.2039728043259361
	// logStdMin and logStdMax clamp the log-std so σ stays in
	// [e^-3, e^0.7] ≈ [0.05, 2] normalized action units: exploration can
	// neither collapse nor swamp the concurrency range.
	logStdMin, logStdMax = -3, 0.7
	// maxGradNorm is the global gradient-norm clip of every update.
	maxGradNorm = 5
)

// log(2π), used by Gaussian log-densities.
const log2Pi = 1.8378770664093453

// Batch is one episode's experience.
type Batch struct {
	N       int
	States  []float64 // N×In
	Actions []float64 // N×Out Gaussian samples (Gaussian head)
	Choices []int     // N choices (categorical head)
	Returns []float64 // N discounted returns
}

// Resize sets N to n and sizes the slices for n rows of in-feature
// states and out-wide actions; they only grow.
func (b *Batch) Resize(n, in, out int) {
	b.N = n
	if len(b.Returns) < n {
		b.States, b.Actions = make([]float64, n*in), make([]float64, n*out)
		b.Choices, b.Returns = make([]int, n), make([]float64, n)
	}
}

// PPO is an actor-critic pair trained with the PPO clipped objective: a
// policy network whose head is either Gaussian — Out action means plus a
// trainable, clamped, state-independent log-std per action — or
// categorical over Out choices; a value network; π_θold; and Adam.
type PPO struct {
	Policy, Value *Net
	Categorical   bool
	// Params holds the policy's parameters (with the Gaussian log-std
	// last) and then the value network's: the order of a checkpoint.
	Params []float64
	// Grad is the gradient of the last update's loss, laid out like Params.
	Grad []float64
	// Old is π_θold's copy of the policy part of Params.
	Old  []float64
	Adam *Adam

	pol        int       // policy parameters, log-std included
	std, logS  []float64 // per action: σ and log σ
	act        []float64 // Sample's result
	oldLP, lp  []float64 // per row: log π_θold and log π_θ
	dl, dv     []float64 // per row: ∂loss/∂log π_θ and ∂loss/∂V
	prob, dOut []float64 // N×Out: categorical probabilities, ∂loss/∂head
	dStd       []float64 // per action: ∂loss/∂σ
}

// NewPPO builds the networks for in-feature states: a policy trunk of
// policyBlocks LayerNorm+ReLU blocks with a Gaussian head over out action
// dimensions, or a categorical head over out choices, and a value trunk
// of valueBlocks tanh blocks, all hidden wide. It draws the initial
// parameters from rng in the order policy, value, π_θold.
func NewPPO(in, hidden, policyBlocks, valueBlocks, out int, categorical bool, rng *rand.Rand) *PPO {
	p := &PPO{
		Policy:      NewNet(in, hidden, out, policyBlocks, true),
		Value:       NewNet(in, hidden, 1, valueBlocks, false),
		Categorical: categorical,
	}
	p.pol = p.Policy.Size()
	if !categorical {
		p.pol += out
	}
	p.Params = make([]float64, p.pol+p.Value.Size())
	p.Grad = make([]float64, len(p.Params))
	p.Old = make([]float64, p.pol)
	p.Adam = NewAdam(len(p.Params), 0)
	p.Adam.MaxNorm = maxGradNorm
	p.Policy.Init(p.Params, rng)
	for i := p.Policy.Size(); i < p.pol; i++ {
		p.Params[i] = InitLogStd
	}
	p.Value.Init(p.Params[p.pol:], rng)
	// π_θold draws an initialization of its own before taking the
	// policy's, so the rng stream after NewPPO is the tape-era one.
	p.Policy.Init(p.Old, rng)
	p.SyncOld()
	na := p.pol - p.Policy.Size() // Gaussian action dimensions
	p.std, p.logS, p.act, p.dStd = make([]float64, na), make([]float64, na), make([]float64, na), make([]float64, na)
	return p
}

// Tensors splits Params into the checkpoint's tensors: the policy's, the
// Gaussian log-std, then the value network's.
func (p *PPO) Tensors() [][]float64 {
	ts := p.Policy.Tensors(p.Params)
	if !p.Categorical {
		ts = append(ts, p.Params[p.Policy.Size():p.pol])
	}
	return append(ts, p.Value.Tensors(p.Params[p.pol:])...)
}

// SyncOld copies the policy into π_θold.
func (p *PPO) SyncOld() { copy(p.Old, p.Params[:p.pol]) }

// Mean is the Gaussian policy's mean action for one state, valid until
// the next call into p.
func (p *PPO) Mean(state []float64) []float64 {
	return p.Policy.Forward(p.Params, state, 1)
}

// Sample draws an action for one state from the Gaussian policy, one
// normal variate per dimension in order; the result is valid until the
// next call into p.
func (p *PPO) Sample(state []float64, rng *rand.Rand) []float64 {
	mean := p.Mean(state)
	p.setStd(p.Params)
	for j, m := range mean {
		p.act[j] = m + p.std[j]*rng.NormFloat64()
	}
	return p.act
}

// Choose draws a choice for one state from the categorical policy by
// inverting its CDF at one uniform variate.
func (p *PPO) Choose(state []float64, rng *rand.Rand) int {
	lp := p.Policy.Forward(p.Params, state, 1)
	logSoftmax(lp)
	u := rng.Float64()
	acc := 0.0
	for j, v := range lp {
		acc += math.Exp(v)
		if u <= acc {
			return j
		}
	}
	return len(lp) - 1
}

// setStd computes σ = exp(clamp(log-std)) and log σ from policy
// parameters w.
func (p *PPO) setStd(w []float64) {
	for j, ls := range w[p.Policy.Size():p.pol] {
		p.std[j] = math.Exp(math.Max(logStdMin, math.Min(logStdMax, ls)))
		p.logS[j] = math.Log(p.std[j])
	}
}

// logSoftmax replaces each row of x with its log-softmax.
func logSoftmax(x []float64) {
	m := math.Inf(-1)
	for _, v := range x {
		m = math.Max(m, v)
	}
	lse := 0.0
	for _, v := range x {
		lse += math.Exp(v - m)
	}
	lse = m + math.Log(lse)
	for j, v := range x {
		x[j] = v - lse
	}
}

// logProbs fills lp with the log-probability of each row's action under
// the policy with parameters w. It leaves the policy's activations and
// head output for the gradient: the Gaussian mean, or the categorical
// log-softmax in place of the logits.
func (p *PPO) logProbs(lp, w []float64, b *Batch) []float64 {
	out := p.Policy.Forward(w, b.States, b.N)
	k := p.Policy.Out
	if p.Categorical {
		for i := 0; i < b.N; i++ {
			row := out[i*k : (i+1)*k]
			logSoftmax(row)
			lp[i] = row[b.Choices[i]]
		}
		return out
	}
	p.setStd(w)
	for i := 0; i < b.N; i++ {
		s := 0.0
		for j, m := range out[i*k : (i+1)*k] {
			z := (b.Actions[i*k+j] - m) / p.std[j]
			s += -0.5*(z*z) - p.logS[j] + -0.5*log2Pi
		}
		lp[i] = s
	}
	return out
}

func (p *PPO) reserve(n int) {
	if len(p.lp) >= n {
		return
	}
	k := n * p.Policy.Out
	p.oldLP, p.lp, p.dl, p.dv = make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	p.prob, p.dOut = make([]float64, k), make([]float64, k)
}

// Update runs epochs PPO updates on the batch, each one Adam step on the
// gradient of the clipped surrogate plus CriticCoef times the value loss
// minus entropyCoef times the entropy, with the probability ratios taken
// against π_θold; then it copies the policy into π_θold. It returns the
// last epoch's loss.
func (p *PPO) Update(b *Batch, epochs int, entropyCoef float64) float64 {
	p.reserve(b.N)
	p.logProbs(p.oldLP, p.Old, b)
	loss := 0.0
	for e := 0; e < epochs; e++ {
		loss = p.gradient(b, entropyCoef)
		p.Adam.Step(p.Params, p.Grad)
	}
	p.SyncOld()
	return loss
}

// gradient computes the loss of the batch under Params and its gradient
// in Grad. The branches run in the order the tape ran them, the entropy's
// first, so each parameter's gradient adds its terms in the same order.
func (p *PPO) gradient(b *Batch, ec float64) float64 {
	n, nf, k := b.N, float64(b.N), p.Policy.Out
	pol, gpol := p.Params[:p.pol], p.Grad[:p.pol]
	clear(p.Grad)
	out := p.logProbs(p.lp[:n], pol, b)
	v := p.Value.Forward(p.Params[p.pol:], b.States, n)

	lo, hi := 1.0-Clip, 1.0+Clip
	var sumMin, sumSq, ent float64
	for i := 0; i < n; i++ {
		adv := b.Returns[i] - v[i]
		r := math.Exp(p.lp[i] - p.oldLP[i])
		sumMin += math.Min(r*adv, math.Max(lo, math.Min(hi, r))*adv)
		sumSq += adv * adv
	}
	gEnt := -1 * ec
	dOut := p.dOut[:n*k]
	if p.Categorical {
		// Entropy: −mean over rows of Σ p·log p, backpropagated through
		// its own pass of the policy.
		prob := p.prob[:n*k]
		rowSum := 0.0
		gRow := gEnt * -1 / nf
		for i := 0; i < n; i++ {
			s, gsum := 0.0, 0.0
			for j := i * k; j < (i+1)*k; j++ {
				prob[j] = math.Exp(out[j])
				s += prob[j] * out[j]
				dOut[j] = gRow*prob[j] + gRow*out[j]*prob[j]
				gsum += dOut[j]
			}
			rowSum += s
			for j := i * k; j < (i+1)*k; j++ {
				dOut[j] -= prob[j] * gsum
			}
		}
		ent = -(rowSum / nf)
		p.Policy.Backward(pol, gpol, dOut)
	} else {
		// Entropy: Σ log σ + ½log(2πe), through σ to the log-std.
		for j, s := range p.std {
			ent += math.Log(s) + 0.5*(log2Pi+1)
			p.addLogStdGrad(gpol, j, gEnt*(1/s)*s)
		}
	}
	loss := (-(sumMin / nf) + CriticCoef*(sumSq/nf)) - ec*ent

	// Critic.
	gC := CriticCoef / nf
	for i := 0; i < n; i++ {
		p.dv[i] = gC * (2 * (b.Returns[i] - v[i])) * -1
	}
	p.Value.Backward(p.Params[p.pol:], p.Grad[p.pol:], p.dv[:n])

	// Actor: ∂loss/∂log π_θ per row through min(r·A, clip(r)·A).
	gA := -1.0 / nf
	for i := 0; i < n; i++ {
		adv := b.Returns[i] - v[i]
		r := math.Exp(p.lp[i] - p.oldLP[i])
		g1, g2 := gA, gA*0
		if !(r*adv <= math.Max(lo, math.Min(hi, r))*adv) {
			g1, g2 = gA*0, gA
		}
		p.dl[i] = (g1*adv + g2*adv*passes(r, lo, hi)) * r
	}
	if p.Categorical {
		for i := 0; i < n; i++ {
			g := p.dl[i]
			for j := i * k; j < (i+1)*k; j++ {
				dOut[j] = -(p.prob[j] * g)
			}
			dOut[i*k+b.Choices[i]] += g
		}
		p.Policy.Backward(pol, gpol, dOut)
		return loss
	}
	// Gaussian: each row's log-density Σ −½z² − log σ − ½log 2π with
	// z = (a−μ)/σ. σ's gradient takes the log σ term first, then the
	// rows of z, as the tape summed them.
	clear(p.dStd)
	for i := 0; i < n; i++ {
		for j, m := range out[i*k : (i+1)*k] {
			p.dStd[j] += p.dl[i] * -1
			z := (b.Actions[i*k+j] - m) / p.std[j]
			zg := p.dl[i] * -0.5 * (2 * z)
			dOut[i*k+j] = zg * (1 / p.std[j]) * -1
		}
	}
	for j, s := range p.std {
		p.dStd[j] *= 1 / s
	}
	for i := 0; i < n; i++ {
		for j, m := range out[i*k : (i+1)*k] {
			d := b.Actions[i*k+j] - m
			zg := p.dl[i] * -0.5 * (2 * (d / p.std[j]))
			p.dStd[j] += zg * (-d / (p.std[j] * p.std[j]))
		}
	}
	for j, s := range p.std {
		p.addLogStdGrad(gpol, j, p.dStd[j]*s)
	}
	p.Policy.Backward(pol, gpol, dOut)
	return loss
}

// addLogStdGrad adds g, a gradient at the clamped log-std of action j,
// to the log-std's gradient.
func (p *PPO) addLogStdGrad(gpol []float64, j int, g float64) {
	o := p.Policy.Size() + j
	gpol[o] += g * passes(p.Params[o], logStdMin, logStdMax)
}

// passes is the gradient of clamping x to [lo, hi]. Masks multiply
// rather than skip, so a NaN or infinite gradient propagates as the
// tape's did.
func passes(x, lo, hi float64) float64 {
	if x < lo || x > hi {
		return 0
	}
	return 1
}
