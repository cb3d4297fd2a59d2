// Package tensor is a test-only, tape-based reverse-mode autograd over
// small dense float64 tensors: the reference that internal/nn's
// fixed-shape PPO kernels are compared against, bit for bit, by
// TestKernelsMatchTape. It has exactly the operations those networks
// use: matrix multiplication, broadcast arithmetic, tanh, ReLU, layer
// normalization, log-softmax, Gaussian log-probability building blocks,
// clipping, and reductions. Tensors are row-major and at most rank 2;
// scalars are rank-0 tensors with a single element.
//
// Autograd is tape-based: every differentiable operation records its
// parents and a backward closure on the output tensor. Calling
// (*Tensor).Backward on a scalar output performs a topological sort of the
// recorded graph and accumulates gradients into the Grad slices of all
// tensors created with requiresGrad set (parameters) or reached through
// differentiable ops.
package tensor

import "fmt"

// Tensor is a dense row-major float64 tensor of rank 0, 1, or 2.
type Tensor struct {
	// Data holds the elements in row-major order.
	Data []float64
	// Grad accumulates the gradient of the loss with respect to this
	// tensor. It is allocated lazily on the backward pass and is nil for
	// tensors that do not require gradients.
	Grad []float64

	shape        []int
	requiresGrad bool
	parents      []*Tensor
	backward     func()
}

// New creates a tensor with the given shape from data. The data slice is
// used directly (not copied); len(data) must equal the product of the
// shape dimensions.
func New(data []float64, shape ...int) *Tensor {
	n := numElems(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (want %d)", len(data), shape, n))
	}
	return &Tensor{Data: data, shape: append([]int(nil), shape...)}
}

// Zeros creates a zero-filled tensor with the given shape.
func Zeros(shape ...int) *Tensor {
	return New(make([]float64, numElems(shape)), shape...)
}

// Full creates a tensor with every element set to v.
func Full(v float64, shape ...int) *Tensor {
	t := Zeros(shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// FromRows creates a rank-2 tensor from a slice of equal-length rows.
func FromRows(rows [][]float64) *Tensor {
	if len(rows) == 0 {
		return Zeros(0, 0)
	}
	c := len(rows[0])
	data := make([]float64, 0, len(rows)*c)
	for i, r := range rows {
		if len(r) != c {
			panic(fmt.Sprintf("tensor: ragged rows: row 0 has %d cols, row %d has %d", c, i, len(r)))
		}
		data = append(data, r...)
	}
	return New(data, len(rows), c)
}

// Param marks the tensor as requiring gradient accumulation and returns it.
// Use for trainable parameters.
func (t *Tensor) Param() *Tensor {
	t.requiresGrad = true
	return t
}

// Shape returns the tensor's dimensions. The returned slice must not be
// modified.
func (t *Tensor) Shape() []int { return t.shape }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Rows returns the number of rows of a rank-2 tensor, or 1 for lower ranks.
func (t *Tensor) Rows() int {
	if len(t.shape) == 2 {
		return t.shape[0]
	}
	return 1
}

// Cols returns the trailing dimension, or 1 for a scalar.
func (t *Tensor) Cols() int {
	if len(t.shape) == 0 {
		return 1
	}
	return t.shape[len(t.shape)-1]
}

// Item returns the single element of a one-element tensor.
func (t *Tensor) Item() float64 {
	if len(t.Data) != 1 {
		panic(fmt.Sprintf("tensor: Item on tensor with %d elements", len(t.Data)))
	}
	return t.Data[0]
}

// Clone returns a deep copy of the tensor's data and shape. The clone is
// detached from the autograd graph and does not require gradients.
func (t *Tensor) Clone() *Tensor {
	d := make([]float64, len(t.Data))
	copy(d, t.Data)
	return New(d, t.shape...)
}

// Detach returns a view of the tensor's data that is disconnected from the
// autograd graph. The underlying data slice is shared.
func (t *Tensor) Detach() *Tensor {
	return &Tensor{Data: t.Data, shape: t.shape}
}

// ZeroGrad clears the accumulated gradient, if any.
func (t *Tensor) ZeroGrad() {
	for i := range t.Grad {
		t.Grad[i] = 0
	}
}

func (t *Tensor) ensureGrad() []float64 {
	if t.Grad == nil {
		t.Grad = make([]float64, len(t.Data))
	}
	return t.Grad
}

// needsTape reports whether an op over the given inputs must be recorded.
func needsTape(ins ...*Tensor) bool {
	for _, in := range ins {
		if in.requiresGrad || in.backward != nil || len(in.parents) > 0 {
			return true
		}
	}
	return false
}

// child builds an op output tensor, wiring parents and backward when any
// input participates in the autograd graph.
func child(data []float64, shape []int, back func(), ins ...*Tensor) *Tensor {
	out := New(data, shape...)
	if needsTape(ins...) {
		out.parents = append([]*Tensor(nil), ins...)
		out.backward = back
	}
	return out
}

// Backward computes gradients of t with respect to every tensor in its
// graph. t must hold a single element (a scalar loss).
func (t *Tensor) Backward() {
	if len(t.Data) != 1 {
		panic("tensor: Backward requires a single-element tensor")
	}
	// Topological order via iterative DFS.
	var order []*Tensor
	visited := make(map[*Tensor]bool)
	type frame struct {
		t    *Tensor
		next int
	}
	stack := []frame{{t: t}}
	visited[t] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(f.t.parents) {
			p := f.t.parents[f.next]
			f.next++
			if !visited[p] {
				visited[p] = true
				stack = append(stack, frame{t: p})
			}
			continue
		}
		order = append(order, f.t)
		stack = stack[:len(stack)-1]
	}
	// Seed and propagate in reverse topological order (outputs first).
	t.ensureGrad()[0] = 1
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n.backward != nil {
			n.backward()
		}
	}
}

func numElems(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", shape))
		}
		n *= d
	}
	return n
}

func sameShape(a, b *Tensor) bool {
	if len(a.shape) != len(b.shape) {
		return false
	}
	for i := range a.shape {
		if a.shape[i] != b.shape[i] {
			return false
		}
	}
	return true
}
