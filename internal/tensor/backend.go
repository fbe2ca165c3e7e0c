package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// workers holds the number of goroutines heavy kernels (matmul, conv,
// pooling) may fan out to. 1 means strictly serial execution. The value is
// process-global because it models the execution platform (the paper's
// CPU-vs-GPU axis), not a per-call option.
var workers atomic.Int64

func init() {
	workers.Store(int64(runtime.NumCPU()))
}

// SetWorkers configures the kernel parallelism degree. n < 1 is clamped
// to 1 (serial). It returns the previous setting so callers (benchmarks,
// the Figure 3 harness) can restore it.
func SetWorkers(n int) int {
	if n < 1 {
		n = 1
	}
	return int(workers.Swap(int64(n)))
}

// Workers returns the current kernel parallelism degree.
func Workers() int { return int(workers.Load()) }

// KernelBackend names the active micro-kernel implementation: "avx2"
// when the assembly tier runs, else "scalar". The two produce
// bit-identical results, so it is a diagnostic only.
func KernelBackend() string {
	if gemmAVX2 {
		return "avx2"
	}
	return "scalar"
}

// --- persistent worker pool ---------------------------------------------
//
// Kernels used to spawn fresh goroutines on every parallel call, so a
// small conv layer paid goroutine spawn+join per layer per trial. The
// pool below keeps long-lived workers parked on a channel; a parallel
// region enqueues one job and the submitter plus any woken workers claim
// chunks from it via an atomic cursor.
//
// Deadlock freedom under nesting (a conv parallelized over samples whose
// inner GEMM parallelizes again): nobody ever blocks on an *unclaimed*
// chunk. The submitter runs claimChunks itself before waiting, so chunks
// that no pool worker picked up are executed inline; the final wait only
// covers chunks some worker is actively executing, and workers never
// block except to park on the empty queue. By induction over nesting
// depth every claimed chunk terminates, hence every wait does.

// parJob is one parallel region: fn over [0,n) in nchunk chunks of size
// chunk (the last one short).
type parJob struct {
	fn     chunker
	n      int
	chunk  int
	nchunk int64
	next   atomic.Int64
	wg     sync.WaitGroup
}

// claimChunks executes chunks of j until none are left unclaimed.
func (j *parJob) claimChunks() {
	for {
		i := j.next.Add(1) - 1
		if i >= j.nchunk {
			return
		}
		lo := int(i) * j.chunk
		hi := lo + j.chunk
		if hi > j.n {
			hi = j.n
		}
		j.fn.run(lo, hi)
		j.wg.Done()
	}
}

// poolQueue wakes parked workers. The buffer lets a submitter enqueue
// without blocking even when every worker is busy; a worker that drains
// a stale (already finished) job just parks again.
var poolQueue = make(chan *parJob, 256)

// poolWorkers counts live pool goroutines; they are spawned on demand
// (up to the requested fan-out) and never exit.
var poolWorkers atomic.Int64

// maxPoolWorkers caps the pool size; SetWorkers values beyond it still
// work, the extra chunks are simply claimed by the submitter.
const maxPoolWorkers = 64

func poolWorker() {
	for j := range poolQueue {
		j.claimChunks()
	}
}

// ensurePoolWorkers grows the pool to at least n goroutines.
func ensurePoolWorkers(n int) {
	if n > maxPoolWorkers {
		n = maxPoolWorkers
	}
	for {
		cur := poolWorkers.Load()
		if cur >= int64(n) {
			return
		}
		if poolWorkers.CompareAndSwap(cur, cur+1) {
			go poolWorker()
		}
	}
}

// chunker is a parallel region's body, run once per chunk [lo, hi). A
// region with state of its own (gemmChunks) implements it on a pointer,
// so state and body are one allocation; chunkFunc adapts a closure.
type chunker interface{ run(lo, hi int) }

type chunkFunc func(lo, hi int)

func (f chunkFunc) run(lo, hi int) { f(lo, hi) }

// runParallel splits [0, n) into chunks of the given size and executes
// fn.run(lo, hi) across the submitter plus up to w-1 pool workers.
func runParallel(n, chunk, w int, fn chunker) {
	j := &parJob{fn: fn, n: n, chunk: chunk}
	j.nchunk = int64((n + chunk - 1) / chunk)
	j.wg.Add(int(j.nchunk))
	ensurePoolWorkers(w - 1)
	// Wake up to w-1 workers. Non-blocking: if the queue is full the
	// submitter (and whichever workers drain the queue) still make
	// progress by claiming chunks directly.
	for i := 0; i < w-1; i++ {
		select {
		case poolQueue <- j:
		default:
			i = w // queue full; stop enqueueing
		}
	}
	j.claimChunks()
	j.wg.Wait()
}

// parallelForChunks splits [0, n) into contiguous chunks and runs
// fn(lo, hi) per chunk. Preferred for kernels whose per-index work is tiny,
// where per-index dispatch overhead would dominate.
func parallelForChunks(n int, fn func(lo, hi int)) {
	w := Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		fn(0, n)
		return
	}
	runParallel(n, (n+w-1)/w, w, chunkFunc(fn))
}
