package cluster

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"insitu/internal/comm"
)

// Options tunes the fleet's failure detection and recovery. The zero
// value of any field selects its default; the zero Options is what New
// uses.
type Options struct {
	// HeartbeatInterval is each worker's liveness beacon period.
	HeartbeatInterval time.Duration // default 100ms
	// HeartbeatTimeout is how long a rank may stay silent (no beacon, no
	// result, no note) before the monitor evicts it.
	HeartbeatTimeout time.Duration // default 1s
	// AttemptTimeout bounds one render attempt when the caller's context
	// carries no (or a later) deadline; every member abandons the
	// attempt's collectives past it.
	AttemptTimeout time.Duration // default 15s
	// DrainGrace is how long past an attempt's deadline the router waits
	// for survivors' completion notes before declaring silent members
	// dead.
	DrainGrace time.Duration // default 1s
	// RetryBackoff is the initial delay before re-dispatching a failed
	// frame, doubled per attempt and charged against the caller's
	// deadline.
	RetryBackoff time.Duration // default 25ms
	// MaxAttempts caps render attempts (first try included).
	MaxAttempts int // default 3
	// BlameThreshold is how many stuck-peer reports evict a rank that
	// still heartbeats — the wedged-link failure mode, invisible to the
	// beacon monitor.
	BlameThreshold int // default 2
	// Faults, when set, is installed on the fleet's transport before any
	// traffic flows — the chaos-test hook.
	Faults *comm.FaultPlan
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.HeartbeatInterval <= 0 {
		out.HeartbeatInterval = 100 * time.Millisecond
	}
	if out.HeartbeatTimeout <= 0 {
		out.HeartbeatTimeout = time.Second
	}
	if out.AttemptTimeout <= 0 {
		out.AttemptTimeout = 15 * time.Second
	}
	if out.DrainGrace <= 0 {
		out.DrainGrace = time.Second
	}
	if out.RetryBackoff <= 0 {
		out.RetryBackoff = 25 * time.Millisecond
	}
	if out.MaxAttempts <= 0 {
		out.MaxAttempts = 3
	}
	if out.BlameThreshold <= 0 {
		out.BlameThreshold = 2
	}
	return out
}

// RankFailure is the typed error Render returns when rank death or
// wedging — not an application error — exhausts the retry budget or
// leaves fewer live workers than the requested shard count. Ranks names
// the ranks evicted so far; callers (the serving layer) use it to
// re-plan at a feasible shard count or fall back to standalone
// rendering.
type RankFailure struct {
	Ranks    []int // evicted world ranks
	Attempts int   // attempts spent before giving up
	Last     error // the final attempt's failure
}

func (e *RankFailure) Error() string {
	return fmt.Sprintf("cluster: rank failure (dead ranks %v, %d attempts): %v", e.Ranks, e.Attempts, e.Last)
}

func (e *RankFailure) Unwrap() error { return e.Last }

// AliveWorkers returns how many workers are currently in the placement
// ring. Called on the serving admission hot path.
//
//insitu:noalloc
func (cl *Cluster) AliveWorkers() int { return int(cl.alive.Load()) }

// isDead reports whether a rank has been evicted.
func (cl *Cluster) isDead(w int) bool { return cl.dead[w].Load() }

// DeadRanks lists evicted world ranks in rank order (nil when healthy).
func (cl *Cluster) DeadRanks() []int {
	var out []int
	for w := 1; w <= cl.workers; w++ {
		if cl.dead[w].Load() {
			out = append(out, w)
		}
	}
	return out
}

// EvictReasons returns why each dead rank was evicted.
func (cl *Cluster) EvictReasons() map[int]string {
	cl.reasonMu.Lock()
	defer cl.reasonMu.Unlock()
	out := make(map[int]string, len(cl.evictReasons))
	for w, r := range cl.evictReasons {
		out[w] = r
	}
	return out
}

// evict removes a rank from the fleet: it leaves the placement ring, its
// in-flight attempts are cancelled so survivors abandon them immediately
// instead of waiting out the deadline, its beacon is retired, and — in
// case it is wedged rather than dead — it is told to invalidate its
// shard caches. Eviction is sticky: a rank that resumes beaconing is not
// re-admitted (the serving layer's breaker decides when a degraded fleet
// is worth probing again).
func (cl *Cluster) evict(w int, reason string) {
	if cl.dead[w].Swap(true) {
		return
	}
	cl.alive.Add(-1)
	atomic.AddInt64(&cl.n.Evictions, 1)
	cl.reasonMu.Lock()
	cl.evictReasons[w] = reason
	cl.reasonMu.Unlock()

	cl.attemptMu.Lock()
	for _, at := range cl.attempts {
		for _, m := range at.members {
			if m == w {
				at.cancel()
				break
			}
		}
	}
	cl.attemptMu.Unlock()

	// Off this goroutine: a wedged worker's inbound link may be full.
	cl.wg.Add(1)
	go func() {
		defer cl.wg.Done()
		cl.router.SendCtx(cl.ctx, w, tagEvict, nil)
	}()
}

// heartbeatLoop is worker w's liveness beacon. It runs on its own
// goroutine so a worker busy rendering still proves liveness; only a
// severed transport (or eviction) silences it.
func (cl *Cluster) heartbeatLoop(w int) {
	defer cl.wg.Done()
	e := cl.world.Endpoint(w)
	t := time.NewTicker(cl.opts.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-cl.ctx.Done():
			return
		case <-t.C:
			if cl.dead[w].Load() {
				return
			}
			e.SendCtx(cl.ctx, 0, tagHeartbeat, nil)
		}
	}
}

// monitorLoop evicts ranks whose beacons (or any other traffic) stop for
// longer than the heartbeat timeout.
func (cl *Cluster) monitorLoop() {
	defer cl.wg.Done()
	t := time.NewTicker(cl.opts.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-cl.ctx.Done():
			return
		case <-t.C:
			cutoff := time.Now().Add(-cl.opts.HeartbeatTimeout).UnixNano()
			for w := 1; w <= cl.workers; w++ {
				if !cl.dead[w].Load() && cl.lastBeat[w].Load() < cutoff {
					cl.evict(w, "heartbeat timeout")
				}
			}
		}
	}
}

// blameRank charges one stuck-peer report against a rank; at the blame
// threshold the rank is evicted even though it still beacons — the
// stalled-link failure mode, where the rank is alive but its traffic
// never arrives.
func (cl *Cluster) blameRank(r int) {
	if r < 1 || r > cl.workers {
		return
	}
	if int(cl.blame[r].Add(1)) >= cl.opts.BlameThreshold && !cl.dead[r].Load() {
		cl.evict(r, "blamed as stuck peer by exchange partners")
	}
}

// attemptContext returns the router-created context shared with one
// attempt's workers. A job whose attempt is already unregistered (its
// caller gave up) gets an already-cancelled context, so the worker
// abandons the frame at its first collective instead of rendering a
// frame nobody wants.
func (cl *Cluster) attemptContext(id uint64) context.Context {
	cl.attemptMu.Lock()
	at := cl.attempts[id]
	cl.attemptMu.Unlock()
	if at != nil {
		return at.ctx
	}
	return canceledCtx
}

var canceledCtx = func() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}()

// drainAttempt is the barrier between a failed attempt and its retry: it
// waits until every live member has sent its completion note — proof the
// member is out of the old exchange, so the retry's traffic cannot be
// consumed by a rank still blocked in the old epoch. Members that stay
// silent past the grace window are evicted as dead; stuck-peer reports
// in the notes feed the blame counters.
func (cl *Cluster) drainAttempt(members []int, done <-chan wireDone, deadline time.Time) {
	noted := make(map[int]bool, len(members))
	wait := time.Until(deadline)
	if wait < 0 {
		wait = 0
	}
	grace := time.NewTimer(wait + cl.opts.DrainGrace)
	defer grace.Stop()
	// Re-check eviction state periodically: a member the monitor evicts
	// mid-drain stops being waited for.
	tick := time.NewTicker(cl.opts.HeartbeatInterval)
	defer tick.Stop()
	for {
		pending := 0
		for _, w := range members {
			if !noted[w] && !cl.isDead(w) {
				pending++
			}
		}
		if pending == 0 {
			break
		}
		select {
		case n := <-done:
			noted[n.Rank] = true
			if n.StuckOn >= 1 {
				cl.blameRank(n.StuckOn)
			}
		case <-tick.C:
		case <-grace.C:
			for _, w := range members {
				if !noted[w] && !cl.isDead(w) {
					cl.evict(w, "no completion note after failed attempt")
				}
			}
			return
		case <-cl.ctx.Done():
			return
		}
	}
}
