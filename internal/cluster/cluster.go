package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"insitu/internal/comm"
	"insitu/internal/core"
	"insitu/internal/framebuffer"
	"insitu/internal/obs"
	"insitu/internal/registry"
)

// Job is one sharded frame order: which backend renders which simulation
// block, how wide the domain decomposition is, and the view.
type Job struct {
	Backend    string // renderer name
	Sim        string
	Arch       string
	N          int // per-shard grid size (weak scaling, as in the study)
	Width      int
	Height     int
	Shards     int
	RTWorkload int
	Azimuth    float64
	Zoom       float64
}

// Result is one finished cluster frame with the measurements serving and
// calibration consume.
type Result struct {
	Image *framebuffer.Image
	// In carries the reduced model inputs of the frame (Tasks = shard
	// count), ready to pair with the measured times as a calibration
	// sample.
	In                core.Inputs
	BuildSeconds      float64
	RenderSeconds     float64 // slowest rank's local render, max(T_local)
	CompositeSeconds  float64 // measured sort-last composite, the paper's Tc
	RankRenderSeconds []float64
	// RankCompositeSeconds is each rank's measured share of the sort-last
	// exchange, in shard order — the per-rank span the frame trace blames
	// a slow composite on.
	RankCompositeSeconds []float64
	// Retries is how many failed attempts preceded this frame (0 on the
	// healthy path) — the serving layer surfaces it per response.
	Retries int
}

// Counters holds the router's monotonic fleet counts, each declared
// once: the fleet bumps its live block with atomic.AddInt64 and Stats
// embeds an atomic copy (obs.LoadCounters), served under these JSON tags.
type Counters struct {
	FramesDispatched int64 `json:"frames_dispatched"`
	Evictions        int64 `json:"evictions"`
	Retries          int64 `json:"retries"`
	RankFailures     int64 `json:"rank_failures"`
}

// Stats is a point-in-time view of cluster transport and health
// counters.
type Stats struct {
	Counters
	Workers      int   `json:"workers"`
	AliveWorkers int   `json:"alive_workers"`
	DeadRanks    []int `json:"dead_ranks,omitempty"`
	BytesSent    int64 `json:"bytes_sent"`
	MessagesSent int64 `json:"messages_sent"`
	StaleDrops   int64 `json:"stale_drops"`
	// Ranks is per-rank health: heartbeat age and blame are the gauges
	// the failure detector acts on, surfaced so an operator can watch a
	// rank drift toward eviction instead of learning after the fact.
	Ranks []RankHealth `json:"ranks,omitempty"`
	// Links is per-directed-link transport volume (world rank 0 is the
	// router), the topology behind the bytes_sent/messages_sent totals.
	Links []comm.LinkStat `json:"links,omitempty"`
}

// RankHealth is one worker rank's liveness view.
type RankHealth struct {
	Rank                int     `json:"rank"`
	Alive               bool    `json:"alive"`
	HeartbeatAgeSeconds float64 `json:"heartbeat_age_seconds"`
	Blame               int64   `json:"blame"`
	EvictReason         string  `json:"evict_reason,omitempty"`
}

// Cluster is the router side of a worker fleet: it owns rank 0 of an
// in-process comm world whose other ranks run worker loops, places and
// dispatches sharded frames, and routes finished frames back to
// concurrent callers. The models stay on the router: admission prices a
// frame before dispatch, and workers only render.
type Cluster struct {
	// n is the live counter block. First in the struct so its 64-bit
	// fields are 8-byte aligned on 32-bit platforms too.
	n Counters

	world   *comm.World
	router  *comm.Comm
	workers int

	// dispatchMu serializes job dispatch, establishing the global job
	// order the deadlock-freedom argument in the package comment rests
	// on.
	dispatchMu sync.Mutex

	// Fleet health (see health.go): per-rank eviction state, liveness
	// timestamps (UnixNanos, refreshed by any demuxed message), and
	// stuck-peer blame counters. Index 0 is unused.
	opts     Options
	dead     []atomic.Bool
	lastBeat []atomic.Int64
	blame    []atomic.Int64
	alive    atomic.Int64

	// attempts maps in-flight attempt ids (the job ids on the wire) to
	// their router-side records; demuxLoop routes results and completion
	// notes through it, and eviction cancels the attempts a rank is in.
	attemptMu sync.Mutex
	attempts  map[uint64]*attempt

	reasonMu     sync.Mutex
	evictReasons map[int]string

	nextID atomic.Uint64
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// attempt is the router-side record of one in-flight render attempt,
// registered before its job is dispatched and removed when Render is
// done with it.
type attempt struct {
	// ctx is shared with the attempt's workers: its deadline aborts
	// wedged collectives, and evicting a member cancels it.
	ctx     context.Context
	cancel  context.CancelFunc
	members []int
	// result holds the group leader's frame. The first copy wins; a
	// duplicate that finds it full is dropped.
	result chan *wireResultMsg
	// done queues members' completion notes for the drain barrier,
	// buffered for every member.
	done chan wireDone
}

type wireResultMsg struct {
	res *wireResult
	img *framebuffer.Image
}

// New starts a fleet of workers with default fault-tolerance options.
// The registry argument is unused: workers render and never read the
// models, which stay with the router's admission. It remains only for
// existing callers and will be dropped.
func New(_ *registry.Registry, workers int) (*Cluster, error) {
	return NewWithOptions(workers, Options{})
}

// NewWithOptions is New with explicit failure-detection and recovery
// tuning (and, for chaos tests, an injected fault plan).
func NewWithOptions(workers int, opts Options) (*Cluster, error) {
	if workers < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 worker, got %d", workers)
	}
	ctx, cancel := context.WithCancel(context.Background())
	world := comm.NewWorld(workers + 1)
	opts = opts.withDefaults()
	if opts.Faults != nil {
		world.InjectFaults(opts.Faults)
	}
	cl := &Cluster{
		world:        world,
		router:       world.Endpoint(0),
		workers:      workers,
		opts:         opts,
		dead:         make([]atomic.Bool, workers+1),
		lastBeat:     make([]atomic.Int64, workers+1),
		blame:        make([]atomic.Int64, workers+1),
		attempts:     map[uint64]*attempt{},
		evictReasons: map[int]string{},
		ctx:          ctx,
		cancel:       cancel,
	}
	cl.alive.Store(int64(workers))
	now := time.Now().UnixNano()
	for w := 1; w <= workers; w++ {
		cl.lastBeat[w].Store(now)
	}
	for w := 1; w <= workers; w++ {
		cl.wg.Add(3)
		go cl.workerLoop(w)
		go cl.demuxLoop(w)
		go cl.heartbeatLoop(w)
	}
	cl.wg.Add(1)
	go cl.monitorLoop()
	return cl, nil
}

// Workers returns the fleet size.
func (cl *Cluster) Workers() int { return cl.workers }

// Close shuts the fleet down. Jobs already dispatched run to completion
// (their results are dropped); callers should stop submitting first.
func (cl *Cluster) Close() {
	cl.cancel()
	cl.wg.Wait()
}

// Stats snapshots the transport and health counters.
func (cl *Cluster) Stats() Stats {
	return Stats{
		Counters:     obs.LoadCounters(&cl.n),
		Workers:      cl.workers,
		AliveWorkers: cl.AliveWorkers(),
		DeadRanks:    cl.DeadRanks(),
		BytesSent:    cl.world.BytesSent(),
		MessagesSent: cl.world.MessagesSent(),
		StaleDrops:   cl.world.StaleDrops(),
		Ranks:        cl.RankHealths(),
		Links:        cl.world.LinkStats(),
	}
}

// RankHealths snapshots every worker rank's liveness view.
func (cl *Cluster) RankHealths() []RankHealth {
	now := time.Now().UnixNano()
	out := make([]RankHealth, cl.workers)
	cl.reasonMu.Lock()
	for w := 1; w <= cl.workers; w++ {
		out[w-1] = RankHealth{
			Rank:                w,
			Alive:               !cl.dead[w].Load(),
			HeartbeatAgeSeconds: float64(now-cl.lastBeat[w].Load()) / 1e9,
			Blame:               cl.blame[w].Load(),
			EvictReason:         cl.evictReasons[w],
		}
	}
	cl.reasonMu.Unlock()
	return out
}

// Render dispatches one sharded frame and blocks until the composited
// image arrives, the caller's ctx expires, or the retry budget runs out.
// Safe for concurrent use: dispatch is serialized, execution overlaps
// across disjoint worker sets.
//
// Rank failure is handled here: an attempt a dead or wedged rank drags
// past its deadline is abandoned by every survivor, drained, and — after
// the failing ranks are evicted — re-placed over survivors and retried
// with exponential backoff charged against ctx. HRW placement keeps
// unaffected shards on their original ranks, so a retry pays only the
// dead ranks' shards cold. When survivors cannot host the requested
// shard count, or the attempt budget is spent, Render returns a typed
// *RankFailure naming the dead ranks.
func (cl *Cluster) Render(ctx context.Context, job Job) (*Result, error) {
	backoff := cl.opts.RetryBackoff
	var lastErr error
	for attempt := 1; ; attempt++ {
		members, err := placeShards(cl.workers, cl.isDead, &job)
		if err != nil {
			if dead := cl.DeadRanks(); len(dead) > 0 {
				atomic.AddInt64(&cl.n.RankFailures, 1)
				if lastErr == nil {
					lastErr = err
				}
				return nil, &RankFailure{Ranks: dead, Attempts: attempt - 1, Last: lastErr}
			}
			return nil, err
		}
		res, rerr, retry := cl.renderAttempt(ctx, &job, members)
		if rerr == nil {
			res.Retries = attempt - 1
			return res, nil
		}
		if !retry {
			return nil, rerr
		}
		lastErr = rerr
		if attempt >= cl.opts.MaxAttempts {
			atomic.AddInt64(&cl.n.RankFailures, 1)
			return nil, &RankFailure{Ranks: cl.DeadRanks(), Attempts: attempt, Last: rerr}
		}
		atomic.AddInt64(&cl.n.Retries, 1)
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-cl.ctx.Done():
			return nil, fmt.Errorf("cluster: closed while rendering")
		}
		backoff *= 2
	}
}

// renderAttempt runs one placement's attempt end to end. The third
// return reports whether a failure is retryable (a transport-level
// abandonment) as opposed to an application error or caller timeout.
func (cl *Cluster) renderAttempt(ctx context.Context, job *Job, members []int) (*Result, error, bool) {
	id := cl.nextID.Add(1)
	deadline := time.Now().Add(cl.opts.AttemptTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	wj := wireJob{
		JobID:   id,
		Backend: job.Backend, Sim: job.Sim, Arch: job.Arch,
		N: job.N, Width: job.Width, Height: job.Height,
		Shards: job.Shards, RTWorkload: job.RTWorkload,
		Azimuth: job.Azimuth, Zoom: job.Zoom,
		Members:           members,
		DeadlineUnixNanos: deadline.UnixNano(),
	}
	msg, err := packJSON(&wj)
	if err != nil {
		return nil, fmt.Errorf("cluster: encoding job: %w", err), false
	}

	// The attempt context is shared with the job's workers through the
	// attempt table: its deadline aborts wedged collectives, and evicting
	// a member cancels it so survivors abandon the attempt immediately
	// instead of waiting out the deadline. The record stays registered
	// until every return below, drain included, so late notes still
	// reach it.
	attemptCtx, cancel := context.WithDeadline(cl.ctx, deadline)
	defer cancel()
	at := &attempt{
		ctx: attemptCtx, cancel: cancel, members: members,
		result: make(chan *wireResultMsg, 1),
		done:   make(chan wireDone, len(members)+1),
	}
	cl.attemptMu.Lock()
	cl.attempts[id] = at
	cl.attemptMu.Unlock()
	defer func() {
		cl.attemptMu.Lock()
		delete(cl.attempts, id)
		cl.attemptMu.Unlock()
	}()

	// Dispatch the job to every member atomically, all-or-nothing so a
	// group can never form partially.
	cl.dispatchMu.Lock()
	for _, w := range members {
		if err := cl.router.SendCtx(cl.ctx, w, tagJob, msg); err != nil {
			cl.dispatchMu.Unlock()
			return nil, fmt.Errorf("cluster: dispatch to worker %d: %w", w, err), false
		}
	}
	atomic.AddInt64(&cl.n.FramesDispatched, 1)
	cl.dispatchMu.Unlock()

	finish := func(m *wireResultMsg) (*Result, error, bool) {
		if m.res.Err != "" {
			if m.res.Retryable {
				cl.drainAttempt(members, at.done, deadline)
				return nil, fmt.Errorf("cluster: %s", m.res.Err), true
			}
			return nil, fmt.Errorf("cluster: %s", m.res.Err), false
		}
		return &Result{
			Image:                m.img,
			In:                   m.res.In,
			BuildSeconds:         m.res.BuildSeconds,
			RenderSeconds:        m.res.RenderSeconds,
			CompositeSeconds:     m.res.CompositeSeconds,
			RankRenderSeconds:    m.res.RankRenderSeconds,
			RankCompositeSeconds: m.res.RankCompositeSeconds,
		}, nil, false
	}

	select {
	case m := <-at.result:
		return finish(m)
	case <-attemptCtx.Done():
		// The deadline expired or a member was evicted mid-attempt; a
		// result may still have raced in.
		select {
		case m := <-at.result:
			return finish(m)
		default:
		}
		cl.drainAttempt(members, at.done, deadline)
		return nil, fmt.Errorf("cluster: attempt on ranks %v abandoned: %w", members, context.Cause(attemptCtx)), true
	case <-ctx.Done():
		return nil, ctx.Err(), false
	case <-cl.ctx.Done():
		return nil, fmt.Errorf("cluster: closed while rendering"), false
	}
}

// lookup returns the in-flight attempt registered under id, or nil once
// its Render call is done with it.
func (cl *Cluster) lookup(id uint64) *attempt {
	cl.attemptMu.Lock()
	defer cl.attemptMu.Unlock()
	return cl.attempts[id]
}

// workerLoop is worker w: it drains its router link serially, rendering
// jobs in arrival order. Serial processing is load-bearing — see the
// deadlock-freedom argument in the package comment.
func (cl *Cluster) workerLoop(w int) {
	defer cl.wg.Done()
	e := cl.world.Endpoint(w)
	st := newShardState(8, 4)
	defer st.Close()
	for {
		tag, data, err := e.RecvAnyCtx(cl.ctx, 0)
		//insitu:collective-ok a recv failure means ctx shutdown, which cancels every worker's recv too
		if err != nil {
			return // shutdown
		}
		switch tag {
		case tagJob:
			var job wireJob
			//insitu:collective-ok every member receives the same job bytes, so a decode failure is group-uniform
			if _, err := unpackJSON(data, &job); err != nil {
				continue // a malformed job cannot name a group to fail
			}
			gc, err := e.Group(job.Members)
			if err != nil {
				continue
			}
			// Bind the group communicator to the attempt: its collectives
			// carry the job's epoch (stale traffic from abandoned attempts
			// is discarded on receive) and abort past the shared attempt
			// context's deadline or on a member's eviction.
			actx := cl.attemptContext(job.JobID)
			res, img, stuckOn := st.renderJob(gc.WithEpoch(actx, job.JobID), &job)
			// The completion note must go out whether the attempt succeeded
			// or aborted: the router's drain barrier counts it as proof this
			// rank is out of the exchange before re-dispatching.
			if note, err := packJSON(&wireDone{JobID: job.JobID, Rank: w, StuckOn: stuckOn}); err == nil {
				e.SendCtx(cl.ctx, 0, tagFrameDone, note)
			}
			if res == nil {
				continue // not the group leader
			}
			if msg, err := encodeResult(res, img); err == nil {
				e.SendCtx(cl.ctx, 0, tagResult, msg)
			}
		case tagEvict:
			// Evicted (possibly wedged, not dead): drop shard caches so a
			// hypothetical re-admission would rebuild its scenes from
			// scratch, and free the device state the shards held.
			st.Close()
			st = newShardState(8, 4)
		}
	}
}

// demuxLoop drains worker w's link to the router, routing results and
// completion notes to their attempts. One goroutine per link keeps the
// single-reader discipline.
func (cl *Cluster) demuxLoop(w int) {
	defer cl.wg.Done()
	for {
		tag, data, err := cl.router.RecvAnyCtx(cl.ctx, w)
		if err != nil {
			return // shutdown
		}
		// Any traffic proves liveness, not just beacons: a worker too busy
		// streaming results to beacon on time is not dead.
		cl.lastBeat[w].Store(time.Now().UnixNano())
		switch tag {
		case tagHeartbeat:
			// Liveness refresh only, handled above.
		case tagFrameDone:
			var n wireDone
			if _, err := unpackJSON(data, &n); err != nil {
				continue
			}
			if at := cl.lookup(n.JobID); at != nil {
				// Non-blocking in case the drain already gave up and nobody
				// is receiving.
				select {
				case at.done <- n:
				default:
				}
			}
		case tagResult:
			res, img, err := decodeResult(data)
			if err != nil {
				continue
			}
			// Results for unregistered jobs (caller timed out) are dropped,
			// and so is a duplicate that finds the first result waiting.
			if at := cl.lookup(res.JobID); at != nil {
				select {
				case at.result <- &wireResultMsg{res: res, img: img}:
				default:
				}
			}
		}
	}
}
