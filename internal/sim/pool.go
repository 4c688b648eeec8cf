package sim

import (
	"sync"

	"betrfs/internal/metrics"
)

// WorkerPool is the machine's bounded pool for background work: message
// flushing, dirty-node writeback, and checkpoint serialization submit
// tasks here instead of spawning goroutines directly.
//
// The pool has two modes:
//
//   - workers <= 1 (the default): every task runs inline, synchronously,
//     at its submission point. This is the deterministic single-worker
//     mode — the execution order is exactly the order of submission, so
//     single-goroutine simulations stay bit-for-bit identical to a build
//     without the pool.
//   - workers > 1: tasks run on a fixed set of goroutines fed by a
//     bounded channel. Submission blocks when the queue is full
//     (backpressure); TrySubmit never blocks and reports a drop instead.
//
// Counters: `flusher.task.submit` counts every accepted task,
// `flusher.task.inline` and `flusher.task.async` split them by execution
// mode, `flusher.task.dropped` counts TrySubmit rejections, and
// `flusher.drain.count` counts Drain barriers.
type WorkerPool struct {
	env     *Env
	mu      sync.Mutex
	workers int
	tasks   chan func()
	wg      sync.WaitGroup
	stop    chan struct{}

	mSubmit  *metrics.Counter
	mInline  *metrics.Counter
	mAsync   *metrics.Counter
	mDropped *metrics.Counter
	mDrain   *metrics.Counter
}

// NewWorkerPool returns a pool attached to env with the given worker
// count. Counts below one are treated as one (inline mode).
func NewWorkerPool(env *Env, workers int) *WorkerPool {
	p := &WorkerPool{
		env:      env,
		mSubmit:  env.Metrics.Counter("flusher.task.submit"),
		mInline:  env.Metrics.Counter("flusher.task.inline"),
		mAsync:   env.Metrics.Counter("flusher.task.async"),
		mDropped: env.Metrics.Counter("flusher.task.dropped"),
		mDrain:   env.Metrics.Counter("flusher.drain.count"),
	}
	p.SetWorkers(workers)
	return p
}

// Workers returns the current worker count.
func (p *WorkerPool) Workers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.workers
}

// SetWorkers reconfigures the pool. Shrinking to one (or fewer) returns
// the pool to deterministic inline mode after draining in-flight tasks.
// It must not be called concurrently with Submit.
func (p *WorkerPool) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	p.Drain()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stop != nil {
		close(p.stop)
		p.stop = nil
		p.tasks = nil
	}
	p.workers = n
	if n > 1 {
		p.tasks = make(chan func(), 2*n)
		p.stop = make(chan struct{})
		for i := 0; i < n; i++ {
			go p.run(p.tasks, p.stop)
		}
	}
}

func (p *WorkerPool) run(tasks chan func(), stop chan struct{}) {
	for {
		select {
		case f := <-tasks:
			f()
			p.wg.Done()
		case <-stop:
			// Drain whatever is still queued so Drain callers never hang.
			for {
				select {
				case f := <-tasks:
					f()
					p.wg.Done()
				default:
					return
				}
			}
		}
	}
}

// Submit runs f: inline when the pool has one worker, otherwise on a
// worker goroutine (blocking if the bounded queue is full).
func (p *WorkerPool) Submit(f func()) {
	p.mSubmit.Inc()
	p.mu.Lock()
	tasks := p.tasks
	p.mu.Unlock()
	if tasks == nil {
		p.mInline.Inc()
		f()
		return
	}
	p.mAsync.Inc()
	p.wg.Add(1)
	tasks <- f
}

// TrySubmit is Submit without backpressure: if the queue is full the task
// is dropped and false is returned. Use it from code paths that hold
// locks a queued task might need — dropping is safe when the work is
// re-triggerable (e.g. an overfull buffer will re-request a flush on the
// next insert).
func (p *WorkerPool) TrySubmit(f func()) bool {
	p.mu.Lock()
	tasks := p.tasks
	p.mu.Unlock()
	if tasks == nil {
		p.mSubmit.Inc()
		p.mInline.Inc()
		f()
		return true
	}
	p.wg.Add(1)
	select {
	case tasks <- f:
		p.mSubmit.Inc()
		p.mAsync.Inc()
		return true
	default:
		p.wg.Done()
		p.mDropped.Inc()
		return false
	}
}

// Drain blocks until every task submitted so far has completed. It is the
// pool's barrier: checkpoint and sync paths call it before declaring
// state durable.
func (p *WorkerPool) Drain() {
	if p.mDrain != nil {
		p.mDrain.Inc()
	}
	p.wg.Wait()
}

// Close drains the pool and stops its workers.
func (p *WorkerPool) Close() {
	p.Drain()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stop != nil {
		close(p.stop)
		p.stop = nil
		p.tasks = nil
	}
	p.workers = 1
}
