package transfer

import "sync"

// Pool is a dynamically resizable worker pool. Each worker runs the work
// function with a stop channel that is closed when the pool shrinks below
// the worker's slot or shuts down; workers must return promptly once stop
// is closed. Slots are identified by a small integer id so the engine can
// attach per-thread resources (e.g. per-stream rate limiters).
type Pool struct {
	mu    sync.Mutex
	stops []chan struct{}
	wg    sync.WaitGroup
	work  func(stop <-chan struct{}, id int)
}

// NewPool creates a pool with zero workers.
func NewPool(work func(stop <-chan struct{}, id int)) *Pool {
	return &Pool{work: work}
}

// Resize grows or shrinks the pool to n workers. Shrinking closes the
// highest-numbered slots first; it does not wait for them to exit.
func (p *Pool) Resize(n int) {
	if n < 0 {
		n = 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.stops) > n {
		last := len(p.stops) - 1
		close(p.stops[last])
		p.stops = p.stops[:last]
	}
	for len(p.stops) < n {
		stop := make(chan struct{})
		id := len(p.stops)
		p.stops = append(p.stops, stop)
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.work(stop, id)
		}()
	}
}

// Size returns the current target worker count.
func (p *Pool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.stops)
}

// Shutdown stops all workers and waits for them to exit.
func (p *Pool) Shutdown() {
	p.Resize(0)
	p.wg.Wait()
}
