package serve

import (
	"bytes"
	"container/heap"
	"errors"
	"sync"
	"time"

	"insitu/internal/framebuffer"
	"insitu/internal/scenario"
)

// ErrQueueFull reports a render queue at capacity; clients should retry
// later (HTTP layers map it to 503).
var ErrQueueFull = errors.New("serve: render queue full")

// ErrClosed reports a server that has stopped accepting work.
var ErrClosed = errors.New("serve: server closed")

// errNoHeadroom reports a background submission refused because a
// foreground job is queued or no worker is free.
var errNoHeadroom = errors.New("serve: no idle headroom for background work")

// workerState is the per-worker scratch that persists across jobs: the
// worker's devices and render arenas (one per arch and backend), and the
// PNG encoder's compressor and buffers and the buffer it encodes into,
// so steady-state frame encoding allocates only the exact-size copy of
// the PNG a frame result publishes. The worker closes its devices when
// it exits.
type workerState struct {
	arenas scenario.Arenas
	enc    framebuffer.PNGEncoder
	png    bytes.Buffer
}

// job is one queued foreground render with its absolute deadline (zero
// time means no deadline and sorts last), the admission-time predicted
// cost (for the foreground-load gauge in Stats), and a FIFO tiebreaker.
type job struct {
	deadline  time.Time
	predNanos int64
	seq       uint64
	run       func(ws *workerState)
}

// jobHeap orders jobs earliest-deadline-first.
type jobHeap []*job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	di, dj := h[i].deadline, h[j].deadline
	switch {
	case di.IsZero() && dj.IsZero():
		return h[i].seq < h[j].seq
	case di.IsZero():
		return false
	case dj.IsZero():
		return true
	case di.Equal(dj):
		return h[i].seq < h[j].seq
	default:
		return di.Before(dj)
	}
}
func (h jobHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x any)   { *h = append(*h, x.(*job)) }
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return j
}

// bgJob is one queued background (speculative prefetch) render. cancel
// runs when the job is shed without executing, so the submitter can
// release whatever the job was accounted against. The job is not
// runnable before ready (submission time + the scheduler's bgGrace).
type bgJob struct {
	run    func(ws *workerState)
	cancel func()
	ready  time.Time
}

// speculationGrace is the bgGrace a Server runs its scheduler with (see
// scheduler): long against writing a response and waking its reader
// (tens of microseconds), short against the think times worth
// speculating into (tens of milliseconds), so it costs no prefetch hit.
const speculationGrace = 500 * time.Microsecond

// scheduler is a bounded worker pool with two priority classes.
//
// Foreground jobs (client frames) execute earliest-deadline-first: under
// contention the frame closest to missing its deadline renders next,
// which is the schedule that minimizes deadline misses when the
// admission controller has already verified each job fits on its own.
//
// Background jobs (speculative prefetch) are strictly subordinate:
//   - admitted only when no foreground job is queued and an idle worker
//     exists (the predicted foreground load — the sum of admission-time
//     cost predictions for queued and running foreground jobs — is
//     tracked for Stats, not gated on);
//   - dequeued only when the foreground heap is empty, so a queued
//     foreground job is never delayed or reordered by prefetch;
//   - capped at workers-1 concurrent executions (one worker is always
//     reserved for foreground arrivals) unless the pool has a single
//     worker, which then speculates only while idle;
//   - shed first: oldest-first when the background queue overflows
//     (older predictions are the stalest) and wholesale on close;
//   - runnable only bgGrace after submission. A speculative job is
//     queued from inside the Frame call whose response is still to be
//     written, and a render fans out over every device worker; started
//     at once on a host with no idle core it takes the CPU from the
//     delivery of the very frame that triggered it (loopback clients
//     measure milliseconds on a cache hit). The job waits in the queue,
//     not on a worker, so foreground arrivals are served meanwhile.
//
// A background job that has already started cannot be preempted — Go has
// no goroutine preemption points we control — which is why the reserve
// worker and the idle-only admission exist: a foreground arrival finds
// capacity immediately instead of waiting out a speculative render.
type scheduler struct {
	mu       sync.Mutex
	cond     *sync.Cond
	jobs     jobHeap
	bg       []bgJob
	queueCap int
	bgCap    int
	workers  int
	bgGrace  time.Duration // set before the first submitBackground
	seq      uint64
	closed   bool
	wg       sync.WaitGroup

	fgActive    int
	bgActive    int
	fgLoadNanos int64 // predicted cost of queued + running foreground jobs
}

func newScheduler(workers, queueCap, bgCap int) *scheduler {
	if workers < 1 {
		workers = 1
	}
	if queueCap < 1 {
		queueCap = 1
	}
	if bgCap < 1 {
		bgCap = 1
	}
	s := &scheduler{queueCap: queueCap, bgCap: bgCap, workers: workers}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.worker()
	}
	return s
}

// submit enqueues a foreground job; a zero deadline means "whenever"
// (sorted after every deadlined job). predictedSeconds is the admission
// controller's cost estimate, charged against the foreground load until
// the job completes.
func (s *scheduler) submit(deadline time.Time, predictedSeconds float64, run func(ws *workerState)) error {
	predNanos := int64(predictedSeconds * 1e9)
	if predNanos < 0 {
		predNanos = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if len(s.jobs) >= s.queueCap {
		return ErrQueueFull
	}
	s.seq++
	heap.Push(&s.jobs, &job{deadline: deadline, predNanos: predNanos, seq: s.seq, run: run})
	s.fgLoadNanos += predNanos
	s.cond.Signal()
	return nil
}

// submitBackground enqueues a speculative job, admitted only into idle
// headroom: no queued foreground work and a worker free to take it.
// When the background queue is full the oldest queued job is shed (its
// cancel hook runs) to make room — the newest predictions extend
// furthest into the client's future and are worth the most.
func (s *scheduler) submitBackground(run func(ws *workerState), cancel func()) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	if len(s.jobs) > 0 || s.fgActive+s.bgActive >= s.workers {
		s.mu.Unlock()
		return errNoHeadroom
	}
	var shed bgJob
	haveShed := false
	if len(s.bg) >= s.bgCap {
		shed, haveShed = s.bg[0], true
		copy(s.bg, s.bg[1:])
		s.bg = s.bg[:len(s.bg)-1]
	}
	s.bg = append(s.bg, bgJob{run: run, cancel: cancel, ready: time.Now().Add(s.bgGrace)})
	if s.bgGrace > 0 {
		time.AfterFunc(s.bgGrace, s.cond.Signal)
	} else {
		s.cond.Signal()
	}
	s.mu.Unlock()
	if haveShed && shed.cancel != nil {
		shed.cancel()
	}
	return nil
}

// depth reports the queued (not yet running) foreground job count.
func (s *scheduler) depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}

// bgDepth reports the queued (not yet running) background job count.
func (s *scheduler) bgDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.bg)
}

// foregroundLoad returns the predicted seconds of queued plus running
// foreground work — the model's view of how busy the pool is.
func (s *scheduler) foregroundLoad() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return float64(s.fgLoadNanos) / 1e9
}

// bgSlots is the concurrent background execution cap: one worker stays
// reserved for foreground arrivals whenever there is more than one.
func (s *scheduler) bgSlots() int {
	if s.workers > 1 {
		return s.workers - 1
	}
	return 1
}

func (s *scheduler) worker() {
	defer s.wg.Done()
	ws := &workerState{}
	defer ws.arenas.Close()
	for {
		s.mu.Lock()
		for !s.closed && len(s.jobs) == 0 && !s.canRunBackgroundLocked() {
			s.cond.Wait()
		}
		switch {
		case len(s.jobs) > 0:
			j := heap.Pop(&s.jobs).(*job)
			s.fgActive++
			s.mu.Unlock()
			j.run(ws)
			s.mu.Lock()
			s.fgActive--
			s.fgLoadNanos -= j.predNanos
			// A freed worker may unblock a queued background job.
			s.cond.Signal()
			s.mu.Unlock()
		case s.canRunBackgroundLocked():
			b := s.bg[0]
			copy(s.bg, s.bg[1:])
			s.bg = s.bg[:len(s.bg)-1]
			s.bgActive++
			s.mu.Unlock()
			b.run(ws)
			s.mu.Lock()
			s.bgActive--
			s.cond.Signal()
			s.mu.Unlock()
		default: // closed and drained
			s.mu.Unlock()
			return
		}
	}
}

// canRunBackgroundLocked: background work runs only when the foreground
// heap is empty, a background execution slot is free, and the oldest
// queued job (the queue is FIFO, so the first to become ready) has sat
// out its grace.
func (s *scheduler) canRunBackgroundLocked() bool {
	return len(s.bg) > 0 && len(s.jobs) == 0 && s.bgActive < s.bgSlots() &&
		!time.Now().Before(s.bg[0].ready)
}

// close stops accepting jobs, sheds every queued background job (their
// cancel hooks run), drains the foreground queue, and waits for workers.
func (s *scheduler) close() {
	s.mu.Lock()
	s.closed = true
	shed := s.bg
	s.bg = nil
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, b := range shed {
		if b.cancel != nil {
			b.cancel()
		}
	}
	s.wg.Wait()
}
