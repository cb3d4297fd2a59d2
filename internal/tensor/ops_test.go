package tensor

import (
	"fmt"
	"math"
)

// MatMul computes a @ b for rank-2 tensors of shapes (m,k) and (k,n).
func MatMul(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic("tensor: MatMul requires rank-2 operands")
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch (%d,%d)@(%d,%d)", m, k, k2, n))
	}
	data := make([]float64, m*n)
	for i := 0; i < m; i++ {
		ar := a.Data[i*k : (i+1)*k]
		or := data[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := ar[p]
			if av == 0 {
				continue
			}
			br := b.Data[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				or[j] += av * br[j]
			}
		}
	}
	var out *Tensor
	out = child(data, []int{m, n}, func() {
		g := out.Grad
		if needsTape(a) {
			ga := a.ensureGrad()
			// dA = dOut @ B^T
			for i := 0; i < m; i++ {
				gr := g[i*n : (i+1)*n]
				gar := ga[i*k : (i+1)*k]
				for p := 0; p < k; p++ {
					br := b.Data[p*n : (p+1)*n]
					s := 0.0
					for j := 0; j < n; j++ {
						s += gr[j] * br[j]
					}
					gar[p] += s
				}
			}
		}
		if needsTape(b) {
			gb := b.ensureGrad()
			// dB = A^T @ dOut
			for p := 0; p < k; p++ {
				gbr := gb[p*n : (p+1)*n]
				for i := 0; i < m; i++ {
					av := a.Data[i*k+p]
					if av == 0 {
						continue
					}
					gr := g[i*n : (i+1)*n]
					for j := 0; j < n; j++ {
						gbr[j] += av * gr[j]
					}
				}
			}
		}
	}, a, b)
	return out
}

// broadcastIndex maps a flat output index to an index into a tensor with
// the given shape, supporting three cases: identical shape, a row vector
// (D) broadcast across (B,D), and a scalar broadcast everywhere.
func broadcastStride(outCols int, in *Tensor) func(i int) int {
	switch {
	case len(in.Data) == 1:
		return func(int) int { return 0 }
	case in.Rank() <= 1 || in.shape[0] == 1:
		d := in.Cols()
		if d != outCols {
			panic(fmt.Sprintf("tensor: cannot broadcast %v across %d columns", in.shape, outCols))
		}
		return func(i int) int { return i % d }
	default:
		return func(i int) int { return i }
	}
}

// binary applies an elementwise binary op with limited broadcasting
// (same shape, (B,D)·(D), or (·)·scalar). fwd computes the value; bwdA and
// bwdB return the local gradients dOut/dA and dOut/dB at each element.
func binary(a, b *Tensor, fwd func(x, y float64) float64, bwdA, bwdB func(x, y float64) float64) *Tensor {
	big, small := a, b
	if len(b.Data) > len(a.Data) {
		big, small = b, a
	}
	if !sameShape(a, b) && len(small.Data) != 1 && small.Cols() != big.Cols() {
		panic(fmt.Sprintf("tensor: shape mismatch %v vs %v", a.shape, b.shape))
	}
	ia := broadcastStride(big.Cols(), a)
	ib := broadcastStride(big.Cols(), b)
	data := make([]float64, len(big.Data))
	for i := range data {
		data[i] = fwd(a.Data[ia(i)], b.Data[ib(i)])
	}
	var out *Tensor
	out = child(data, big.shape, func() {
		g := out.Grad
		if needsTape(a) {
			ga := a.ensureGrad()
			for i := range g {
				ga[ia(i)] += g[i] * bwdA(a.Data[ia(i)], b.Data[ib(i)])
			}
		}
		if needsTape(b) {
			gb := b.ensureGrad()
			for i := range g {
				gb[ib(i)] += g[i] * bwdB(a.Data[ia(i)], b.Data[ib(i)])
			}
		}
	}, a, b)
	return out
}

// Add returns a + b with broadcasting.
func Add(a, b *Tensor) *Tensor {
	return binary(a, b,
		func(x, y float64) float64 { return x + y },
		func(x, y float64) float64 { return 1 },
		func(x, y float64) float64 { return 1 })
}

// Sub returns a - b with broadcasting.
func Sub(a, b *Tensor) *Tensor {
	return binary(a, b,
		func(x, y float64) float64 { return x - y },
		func(x, y float64) float64 { return 1 },
		func(x, y float64) float64 { return -1 })
}

// Mul returns the elementwise product a * b with broadcasting.
func Mul(a, b *Tensor) *Tensor {
	return binary(a, b,
		func(x, y float64) float64 { return x * y },
		func(x, y float64) float64 { return y },
		func(x, y float64) float64 { return x })
}

// Div returns the elementwise quotient a / b with broadcasting.
func Div(a, b *Tensor) *Tensor {
	return binary(a, b,
		func(x, y float64) float64 { return x / y },
		func(x, y float64) float64 { return 1 / y },
		func(x, y float64) float64 { return -x / (y * y) })
}

// Min returns the elementwise minimum of a and b. Gradient flows to the
// smaller operand (to a on ties).
func Min(a, b *Tensor) *Tensor {
	return binary(a, b,
		math.Min,
		func(x, y float64) float64 {
			if x <= y {
				return 1
			}
			return 0
		},
		func(x, y float64) float64 {
			if x <= y {
				return 0
			}
			return 1
		})
}

// unary applies an elementwise op; bwd returns dOut/dIn given (in, out).
func unary(a *Tensor, fwd func(x float64) float64, bwd func(x, y float64) float64) *Tensor {
	data := make([]float64, len(a.Data))
	for i, v := range a.Data {
		data[i] = fwd(v)
	}
	var out *Tensor
	out = child(data, a.shape, func() {
		ga := a.ensureGrad()
		for i, g := range out.Grad {
			ga[i] += g * bwd(a.Data[i], out.Data[i])
		}
	}, a)
	return out
}

// Tanh applies the hyperbolic tangent elementwise.
func Tanh(a *Tensor) *Tensor {
	return unary(a, math.Tanh, func(x, y float64) float64 { return 1 - y*y })
}

// ReLU applies max(0, x) elementwise.
func ReLU(a *Tensor) *Tensor {
	return unary(a,
		func(x float64) float64 { return math.Max(0, x) },
		func(x, y float64) float64 {
			if x > 0 {
				return 1
			}
			return 0
		})
}

// Exp applies e^x elementwise.
func Exp(a *Tensor) *Tensor {
	return unary(a, math.Exp, func(x, y float64) float64 { return y })
}

// Log applies the natural logarithm elementwise.
func Log(a *Tensor) *Tensor {
	return unary(a, math.Log, func(x, y float64) float64 { return 1 / x })
}

// Square returns x² elementwise.
func Square(a *Tensor) *Tensor {
	return unary(a,
		func(x float64) float64 { return x * x },
		func(x, y float64) float64 { return 2 * x })
}

// Neg returns -x elementwise.
func Neg(a *Tensor) *Tensor {
	return unary(a,
		func(x float64) float64 { return -x },
		func(x, y float64) float64 { return -1 })
}

// Scale returns s*x elementwise for a constant s.
func Scale(a *Tensor, s float64) *Tensor {
	return unary(a,
		func(x float64) float64 { return s * x },
		func(x, y float64) float64 { return s })
}

// AddScalar returns x + s elementwise for a constant s.
func AddScalar(a *Tensor, s float64) *Tensor {
	return unary(a,
		func(x float64) float64 { return x + s },
		func(x, y float64) float64 { return 1 })
}

// Clamp limits every element to [lo, hi]. The gradient is passed through
// inside the range and zeroed outside (straight-through at the bounds).
func Clamp(a *Tensor, lo, hi float64) *Tensor {
	return unary(a,
		func(x float64) float64 { return math.Max(lo, math.Min(hi, x)) },
		func(x, y float64) float64 {
			if x < lo || x > hi {
				return 0
			}
			return 1
		})
}

// Sum reduces all elements to a rank-0 tensor.
func Sum(a *Tensor) *Tensor {
	s := 0.0
	for _, v := range a.Data {
		s += v
	}
	var out *Tensor
	out = child([]float64{s}, nil, func() {
		g := out.Grad[0]
		ga := a.ensureGrad()
		for i := range ga {
			ga[i] += g
		}
	}, a)
	return out
}

// Mean reduces all elements to their average as a rank-0 tensor.
func Mean(a *Tensor) *Tensor {
	n := float64(len(a.Data))
	s := 0.0
	for _, v := range a.Data {
		s += v
	}
	var out *Tensor
	out = child([]float64{s / n}, nil, func() {
		g := out.Grad[0] / n
		ga := a.ensureGrad()
		for i := range ga {
			ga[i] += g
		}
	}, a)
	return out
}

// SumRows reduces a rank-2 tensor (B,D) to a rank-2 tensor (B,1) by
// summing each row.
func SumRows(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic("tensor: SumRows requires rank 2")
	}
	b, d := a.shape[0], a.shape[1]
	data := make([]float64, b)
	for i := 0; i < b; i++ {
		s := 0.0
		for j := 0; j < d; j++ {
			s += a.Data[i*d+j]
		}
		data[i] = s
	}
	var out *Tensor
	out = child(data, []int{b, 1}, func() {
		ga := a.ensureGrad()
		for i := 0; i < b; i++ {
			g := out.Grad[i]
			for j := 0; j < d; j++ {
				ga[i*d+j] += g
			}
		}
	}, a)
	return out
}

// LayerNorm normalizes each row of x to zero mean and unit variance over
// the last dimension, then applies the learned elementwise gain and bias:
// y = gain*(x-mean)/sqrt(var+eps) + bias. gain and bias must be rank-1
// tensors of length equal to x's trailing dimension.
func LayerNorm(x, gain, bias *Tensor, eps float64) *Tensor {
	if x.Rank() != 2 {
		panic("tensor: LayerNorm requires rank-2 input")
	}
	b, d := x.shape[0], x.shape[1]
	if gain.Len() != d || bias.Len() != d {
		panic("tensor: LayerNorm gain/bias length must equal input columns")
	}
	data := make([]float64, b*d)
	xhat := make([]float64, b*d)
	invStd := make([]float64, b)
	for i := 0; i < b; i++ {
		row := x.Data[i*d : (i+1)*d]
		m := 0.0
		for _, v := range row {
			m += v
		}
		m /= float64(d)
		v := 0.0
		for _, u := range row {
			dv := u - m
			v += dv * dv
		}
		v /= float64(d)
		is := 1 / math.Sqrt(v+eps)
		invStd[i] = is
		for j, u := range row {
			h := (u - m) * is
			xhat[i*d+j] = h
			data[i*d+j] = gain.Data[j]*h + bias.Data[j]
		}
	}
	var out *Tensor
	out = child(data, []int{b, d}, func() {
		g := out.Grad
		if needsTape(gain) {
			gg := gain.ensureGrad()
			for i := 0; i < b; i++ {
				for j := 0; j < d; j++ {
					gg[j] += g[i*d+j] * xhat[i*d+j]
				}
			}
		}
		if needsTape(bias) {
			gb := bias.ensureGrad()
			for i := 0; i < b; i++ {
				for j := 0; j < d; j++ {
					gb[j] += g[i*d+j]
				}
			}
		}
		if needsTape(x) {
			gx := x.ensureGrad()
			for i := 0; i < b; i++ {
				// dxhat_j = g_j * gain_j
				var sumDxhat, sumDxhatXhat float64
				for j := 0; j < d; j++ {
					dxh := g[i*d+j] * gain.Data[j]
					sumDxhat += dxh
					sumDxhatXhat += dxh * xhat[i*d+j]
				}
				c := invStd[i] / float64(d)
				for j := 0; j < d; j++ {
					dxh := g[i*d+j] * gain.Data[j]
					gx[i*d+j] += c * (float64(d)*dxh - sumDxhat - xhat[i*d+j]*sumDxhatXhat)
				}
			}
		}
	}, x, gain, bias)
	return out
}

// LogSoftmax computes log(softmax(x)) over each row of a rank-2 tensor.
func LogSoftmax(x *Tensor) *Tensor {
	if x.Rank() != 2 {
		panic("tensor: LogSoftmax requires rank 2")
	}
	b, d := x.shape[0], x.shape[1]
	data := make([]float64, b*d)
	for i := 0; i < b; i++ {
		row := x.Data[i*d : (i+1)*d]
		m := math.Inf(-1)
		for _, v := range row {
			m = math.Max(m, v)
		}
		lse := 0.0
		for _, v := range row {
			lse += math.Exp(v - m)
		}
		lse = m + math.Log(lse)
		for j, v := range row {
			data[i*d+j] = v - lse
		}
	}
	var out *Tensor
	out = child(data, []int{b, d}, func() {
		gx := x.ensureGrad()
		for i := 0; i < b; i++ {
			gsum := 0.0
			for j := 0; j < d; j++ {
				gsum += out.Grad[i*d+j]
			}
			for j := 0; j < d; j++ {
				p := math.Exp(out.Data[i*d+j])
				gx[i*d+j] += out.Grad[i*d+j] - p*gsum
			}
		}
	}, x)
	return out
}

// GatherCols selects one column per row: out[i] = x[i, idx[i]], producing
// a rank-2 (B,1) tensor. Used for categorical log-probabilities.
func GatherCols(x *Tensor, idx []int) *Tensor {
	if x.Rank() != 2 {
		panic("tensor: GatherCols requires rank 2")
	}
	b, d := x.shape[0], x.shape[1]
	if len(idx) != b {
		panic("tensor: GatherCols index length must equal rows")
	}
	data := make([]float64, b)
	for i, j := range idx {
		if j < 0 || j >= d {
			panic(fmt.Sprintf("tensor: GatherCols index %d out of range [0,%d)", j, d))
		}
		data[i] = x.Data[i*d+j]
	}
	var out *Tensor
	out = child(data, []int{b, 1}, func() {
		gx := x.ensureGrad()
		for i, j := range idx {
			gx[i*d+j] += out.Grad[i]
		}
	}, x)
	return out
}
