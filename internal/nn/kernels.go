package nn

import "math"

// linearFwd computes out = x·W + b for n rows. Each output sums its
// products in input order, skipping zero inputs, and adds the bias last.
func linearFwd(out, x, p []float64, l linear, n int) {
	w, bias := p[l.w:l.b], p[l.b:l.b+l.out]
	for i := 0; i < n; i++ {
		o := out[i*l.out : (i+1)*l.out]
		clear(o)
		madd(o, x[i*l.in:], 1, l.in, w, l.out)
		for j, bv := range bias {
			o[j] += bv
		}
	}
}

// linearBwd adds the layer's bias and weight gradients for the output
// gradient dy to grad, each summed over the rows in order, and, when dx is
// non-nil, overwrites it with the input gradient dy·Wᵀ, each summed over
// the outputs in order.
func linearBwd(dx, x, dy, p, grad []float64, l linear, n int) {
	w, gw, gb := p[l.w:l.b], grad[l.w:l.b], grad[l.b:l.b+l.out]
	for i := 0; i < n; i++ {
		for j, v := range dy[i*l.out : (i+1)*l.out] {
			gb[j] += v
		}
	}
	for k := 0; k < l.in; k++ {
		madd(gw[k*l.out:(k+1)*l.out], x[k:], l.in, n, dy, l.out)
		if dx == nil {
			continue
		}
		wr := w[k*l.out : (k+1)*l.out]
		i := 0
		for ; i+4 <= n; i += 4 {
			dot4(dx[i*l.in+k:], l.in, wr, dy[i*l.out:], l.out)
		}
		for ; i < n; i++ {
			s := 0.0
			for j, v := range dy[i*l.out : (i+1)*l.out] {
				s += v * wr[j]
			}
			dx[i*l.in+k] = s
		}
	}
}

// madd adds a[t·as]·v[t·vs:][:len(g)] to g for t = 0..m-1 in order of t,
// skipping zero a. Four terms go in one sweep of g, each element still
// adding them one by one: a quarter of the loads and stores of g.
func madd(g, a []float64, as, m int, v []float64, vs int) {
	var c [4]int
	nc := 0
	for t := 0; t < m; t++ {
		if a[t*as] == 0 {
			continue
		}
		if c[nc] = t; nc < 3 {
			nc++
			continue
		}
		nc = 0
		a0, a1, a2, a3 := a[c[0]*as], a[c[1]*as], a[c[2]*as], a[c[3]*as]
		v0, v1 := v[c[0]*vs:][:len(g)], v[c[1]*vs:][:len(g)]
		v2, v3 := v[c[2]*vs:][:len(g)], v[c[3]*vs:][:len(g)]
		for j, gv := range g {
			g[j] = gv + a0*v0[j] + a1*v1[j] + a2*v2[j] + a3*v3[j]
		}
	}
	for _, t := range c[:nc] {
		at, vt := a[t*as], v[t*vs:][:len(g)]
		for j := range g {
			g[j] += at * vt[j]
		}
	}
}

// dot4 sets s[r·sstride] = Σ_j dy[r·stride+j]·w[j], in order of j, for
// r = 0..3: four independent sums per sweep of w, where one sum alone
// waits on each add.
func dot4(s []float64, sstride int, w, dy []float64, stride int) {
	d0, d1, d2, d3 := dy[:len(w)], dy[stride:stride+len(w)], dy[2*stride:2*stride+len(w)], dy[3*stride:3*stride+len(w)]
	var s0, s1, s2, s3 float64
	for j, wv := range w {
		s0 += d0[j] * wv
		s1 += d1[j] * wv
		s2 += d2[j] * wv
		s3 += d3[j] * wv
	}
	s[0], s[sstride], s[2*sstride], s[3*sstride] = s0, s1, s2, s3
}

func tanhFwd(x []float64) {
	for i, v := range x {
		x[i] = math.Tanh(v)
	}
}

// tanhBwd turns g, the gradient at y = tanh(x), into the gradient at x.
func tanhBwd(g, y []float64) {
	for i, v := range y {
		g[i] *= 1 - v*v
	}
}

// layerNormFwd normalizes each of n rows of x in place to zero mean and
// unit variance, then applies gain and bias, keeping x̂ and 1/σ for
// layerNormBwd.
func layerNormFwd(x, xh, inv, gain, bias []float64, n, d int) {
	for i := 0; i < n; i++ {
		row, xhr := x[i*d:(i+1)*d], xh[i*d:(i+1)*d]
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
		is := 1 / math.Sqrt(v+lnEps)
		inv[i] = is
		for j, u := range row {
			h := (u - m) * is
			xhr[j] = h
			row[j] = gain[j]*h + bias[j]
		}
	}
}

// layerNormBwd turns g, the gradient at a LayerNorm's output, into the
// gradient at its input in place, adding the gain and bias gradients to
// gg and gb.
func layerNormBwd(g, xh, inv, gain, gg, gb []float64, n, d int) {
	for i := 0; i < n; i++ {
		gr, xhr := g[i*d:(i+1)*d], xh[i*d:(i+1)*d]
		var sumDxhat, sumDxhatXhat float64
		for j, v := range gr {
			gg[j] += v * xhr[j]
			gb[j] += v
			dxh := v * gain[j]
			sumDxhat += dxh
			sumDxhatXhat += dxh * xhr[j]
		}
		c := inv[i] / float64(d)
		for j, v := range gr {
			gr[j] = c * (float64(d)*(v*gain[j]) - sumDxhat - xhr[j]*sumDxhatXhat)
		}
	}
}
