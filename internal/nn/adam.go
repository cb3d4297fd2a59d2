package nn

import "math"

// Adam's moment decay rates and denominator floor.
const (
	beta1, beta2 = 0.9, 0.999
	adamEps      = 1e-8
)

// Adam implements the Adam optimizer (Kingma & Ba) over one flat
// parameter slab, as used by Algorithm 2 of the paper.
type Adam struct {
	LR      float64
	MaxNorm float64 // if >0, global gradient-norm clipping threshold

	m, v []float64
	t    int
}

// NewAdam creates an Adam optimizer over n parameters.
func NewAdam(n int, lr float64) *Adam {
	return &Adam{LR: lr, m: make([]float64, n), v: make([]float64, n)}
}

// Reset restarts the optimizer with learning rate lr: zero moments, step 0.
func (a *Adam) Reset(lr float64) {
	a.LR, a.t = lr, 0
	clear(a.m)
	clear(a.v)
}

// GradNorm returns the global L2 norm of grad.
func GradNorm(grad []float64) float64 {
	s := 0.0
	for _, g := range grad {
		s += g * g
	}
	return math.Sqrt(s)
}

// Step applies one Adam update of params from grad, first rescaling grad
// so its global norm does not exceed MaxNorm, if set.
func (a *Adam) Step(params, grad []float64) {
	scale := 1.0
	if a.MaxNorm > 0 {
		if n := GradNorm(grad); n > a.MaxNorm {
			scale = a.MaxNorm / (n + 1e-12)
		}
	}
	a.t++
	// Variables, not constants: 1−β must round in float64 as it always
	// has, not be folded exactly at compile time.
	b1, b2 := float64(beta1), float64(beta2)
	bc1 := 1 - math.Pow(b1, float64(a.t))
	bc2 := 1 - math.Pow(b2, float64(a.t))
	for j, g := range grad {
		g *= scale
		a.m[j] = b1*a.m[j] + (1-b1)*g
		a.v[j] = b2*a.v[j] + (1-b2)*g*g
		mHat := a.m[j] / bc1
		vHat := a.v[j] / bc2
		params[j] -= a.LR * mHat / (math.Sqrt(vHat) + adamEps)
	}
}
