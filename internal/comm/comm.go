// Package comm provides the distributed-memory substrate: an in-process
// message-passing world that stands in for MPI. Each task is a goroutine;
// point-to-point messages copy their payload (network semantics) through
// buffered channels, and the collectives the renderers and compositors
// need (barrier, reductions, gather, broadcast) are built on top. Byte
// counters expose communication volume to the study.
//
// Fault tolerance hooks: a deterministic FaultPlan (InjectFaults) can
// sever ranks and corrupt chosen links for chaos testing, and WithEpoch
// binds a communicator to one exchange attempt — sends are epoch-stamped,
// receives discard other epochs, and blocking operations abort with a
// recoverable *AbortError panic when the attempt's context expires
// instead of wedging on a dead peer.
package comm

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// message is one point-to-point payload. Data is always a private copy.
// epoch identifies the exchange attempt the message belongs to (0 for
// control-plane traffic); receivers bound to an epoch silently discard
// messages from any other epoch, so an abandoned exchange cannot leak
// stale payloads into its retry.
type message struct {
	tag   int
	epoch uint64
	data  []float32
}

// World owns the channels connecting size tasks.
type World struct {
	size  int
	links [][]chan message // links[from][to]
	bytes atomic.Int64
	msgs  atomic.Int64
	stale atomic.Int64
	// Per-link traffic counters, indexed like links. They answer the
	// topology question the totals cannot: which pairs carry the
	// compositing traffic, and how lopsided the exchange pattern is.
	linkBytes [][]atomic.Int64
	linkMsgs  [][]atomic.Int64
	faults    atomic.Pointer[FaultPlan]
}

// NewWorld creates a world of n tasks.
func NewWorld(n int) *World {
	if n < 1 {
		n = 1
	}
	w := &World{
		size:      n,
		links:     make([][]chan message, n),
		linkBytes: make([][]atomic.Int64, n),
		linkMsgs:  make([][]atomic.Int64, n),
	}
	for from := 0; from < n; from++ {
		w.links[from] = make([]chan message, n)
		w.linkBytes[from] = make([]atomic.Int64, n)
		w.linkMsgs[from] = make([]atomic.Int64, n)
		for to := 0; to < n; to++ {
			// Deep buffering lets symmetric exchange patterns (binary
			// swap) post sends before the matching receives.
			w.links[from][to] = make(chan message, 64)
		}
	}
	return w
}

// Size returns the task count.
func (w *World) Size() int { return w.size }

// BytesSent returns the total payload bytes sent so far.
func (w *World) BytesSent() int64 { return w.bytes.Load() }

// MessagesSent returns the total message count so far.
func (w *World) MessagesSent() int64 { return w.msgs.Load() }

// StaleDrops returns how many received messages were discarded because
// their epoch did not match the receiver's — the observable footprint of
// abandoned exchange attempts.
func (w *World) StaleDrops() int64 { return w.stale.Load() }

// LinkStat is one directed link's cumulative traffic.
type LinkStat struct {
	From     int   `json:"from"`
	To       int   `json:"to"`
	Bytes    int64 `json:"bytes"`
	Messages int64 `json:"messages"`
}

// LinkStats returns the cumulative traffic of every link that has
// carried at least one message, ordered by (from, to). Export path:
// allocates a fresh slice per call.
func (w *World) LinkStats() []LinkStat {
	var out []LinkStat
	for from := 0; from < w.size; from++ {
		for to := 0; to < w.size; to++ {
			m := w.linkMsgs[from][to].Load()
			if m == 0 {
				continue
			}
			out = append(out, LinkStat{
				From: from, To: to,
				Bytes:    w.linkBytes[from][to].Load(),
				Messages: m,
			})
		}
	}
	return out
}

// InjectFaults installs (or, with nil, removes) a fault plan. The plan
// intercepts every subsequent send; a world without a plan pays one
// atomic pointer load per message.
func (w *World) InjectFaults(p *FaultPlan) { w.faults.Store(p) }

// Run executes f once per rank, each on its own goroutine, and waits for
// all of them. Panics inside a task are recovered and reported as that
// task's error; the first non-nil error is returned.
func (w *World) Run(f func(c *Comm) error) error {
	errs := make([]error, w.size)
	var wg sync.WaitGroup
	wg.Add(w.size)
	for r := 0; r < w.size; r++ {
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[rank] = fmt.Errorf("comm: task %d panicked: %v", rank, p)
				}
			}()
			errs[rank] = f(&Comm{world: w, rank: rank})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("comm: task %d: %w", r, err)
		}
	}
	return nil
}

// RunCollect is Run but also collects one result value per rank.
func RunCollect[T any](w *World, f func(c *Comm) (T, error)) ([]T, error) {
	results := make([]T, w.size)
	err := w.Run(func(c *Comm) error {
		v, err := f(c)
		results[c.Rank()] = v
		return err
	})
	return results, err
}

// Endpoint returns a service-lifetime communicator for one rank. Unlike
// Run — which owns every rank for the duration of one collective job — an
// endpoint is held by a long-lived goroutine (a render router, a worker
// loop) that sends and receives on its own schedule. The caller is
// responsible for the usual single-reader discipline: at most one
// goroutine may receive from a given (from, to) link at a time.
func (w *World) Endpoint(rank int) *Comm {
	if rank < 0 || rank >= w.size {
		panic(fmt.Sprintf("comm: endpoint for invalid rank %d", rank))
	}
	return &Comm{world: w, rank: rank}
}

// Comm is one task's endpoint in the world (or, when members is set, in a
// sub-communicator over a subset of the world's ranks).
type Comm struct {
	world *World
	// rank is the task's id in this communicator's coordinate space:
	// a position in members for a group, a world rank otherwise.
	rank    int
	members []int // nil for a whole-world communicator
	// epoch stamps every send and filters every receive; abortCtx, when
	// set, bounds every blocking operation (see WithEpoch).
	epoch    uint64
	abortCtx context.Context
}

// AbortError is the panic payload a bound communicator (WithEpoch) raises
// when its context expires inside a blocking Send, Recv, or collective:
// the exchange attempt is abandoned wholesale rather than wedging on a
// dead or stalled peer. Callers running fallible exchanges recover it at
// the attempt boundary and retry.
type AbortError struct {
	Rank int    // world rank of the aborting task
	Peer int    // world rank of the link peer it was blocked on
	Op   string // "send" or "recv"
	Err  error  // the context's error
}

func (e *AbortError) Error() string {
	return fmt.Sprintf("comm: rank %d aborted %s with rank %d: %v", e.Rank, e.Op, e.Peer, e.Err)
}

func (e *AbortError) Unwrap() error { return e.Err }

// WithEpoch returns a communicator bound to one exchange attempt: sends
// are stamped with epoch, receives silently discard messages from any
// other epoch (counted by World.StaleDrops), and every blocking operation
// — including the collectives and anything built on Send/Recv, such as
// sort-last compositing — aborts by panicking with *AbortError once ctx
// is done. Epoch 0 is the control plane (unbound communicators); exchange
// attempts must use non-zero, attempt-unique epochs.
//
// The epoch filter makes retry safe: messages a failed attempt left in
// flight are consumed and dropped by the retry's receives instead of
// being mistaken for its own traffic.
func (c *Comm) WithEpoch(ctx context.Context, epoch uint64) *Comm {
	d := *c
	d.epoch = epoch
	d.abortCtx = ctx
	return &d
}

// actual translates a rank in this communicator's coordinate space to a
// world rank.
func (c *Comm) actual(v int) int {
	if c.members == nil {
		return v
	}
	return c.members[v]
}

// Rank returns this task's id in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the communicator size (the world size, or the member count
// for a group).
func (c *Comm) Size() int {
	if c.members != nil {
		return len(c.members)
	}
	return c.world.size
}

// Group derives a sub-communicator over a subset of this communicator's
// ranks: members[i] becomes rank i of the group, so collectives and
// compositing exchanges written against ranks 0..len(members)-1 run
// unchanged over any rank subset (MPI_Comm_create in miniature). The
// calling task must be a member. Messages still travel over the world's
// per-pair links, so a task may only participate in one group exchange at
// a time — concurrent groups are safe as long as each world rank works
// through its exchanges in a globally consistent order.
func (c *Comm) Group(members []int) (*Comm, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("comm: empty group")
	}
	actual := make([]int, len(members))
	seen := make(map[int]bool, len(members))
	me := -1
	for i, m := range members {
		if m < 0 || m >= c.Size() {
			return nil, fmt.Errorf("comm: group member %d out of range [0,%d)", m, c.Size())
		}
		a := c.actual(m)
		if seen[a] {
			return nil, fmt.Errorf("comm: duplicate group member %d", m)
		}
		seen[a] = true
		actual[i] = a
		if m == c.rank {
			me = i
		}
	}
	if me < 0 {
		return nil, fmt.Errorf("comm: rank %d is not a member of group %v", c.rank, members)
	}
	return &Comm{world: c.world, rank: me, members: actual, epoch: c.epoch, abortCtx: c.abortCtx}, nil
}

// Send delivers a copy of data to the destination rank. Messages between a
// fixed (from, to) pair arrive in send order.
func (c *Comm) Send(to, tag int, data []float32) {
	if to < 0 || to >= c.Size() {
		panic(fmt.Sprintf("comm: send to invalid rank %d", to))
	}
	cp := make([]float32, len(data))
	copy(cp, data)
	from, dst := c.actual(c.rank), c.actual(to)
	m := message{tag: tag, epoch: c.epoch, data: cp}
	if p := c.world.faults.Load(); p != nil {
		for _, out := range p.route(from, dst, m) {
			c.push(from, dst, out)
		}
		return
	}
	c.push(from, dst, m)
}

// push delivers one routed message on a link, honoring the abort binding.
func (c *Comm) push(from, dst int, m message) {
	w := c.world
	w.count(from, dst, m)
	if c.abortCtx == nil {
		w.links[from][dst] <- m
		return
	}
	select {
	case w.links[from][dst] <- m:
	case <-c.abortCtx.Done():
		panic(&AbortError{Rank: from, Peer: dst, Op: "send", Err: c.abortCtx.Err()})
	}
}

// count adds one message to the world's and its link's traffic totals.
func (w *World) count(from, dst int, m message) {
	w.bytes.Add(int64(4 * len(m.data)))
	w.msgs.Add(1)
	w.linkBytes[from][dst].Add(int64(4 * len(m.data)))
	w.linkMsgs[from][dst].Add(1)
}

// Recv blocks for the next message from a rank and checks its tag. A tag
// mismatch indicates a protocol bug and panics (surfaced by Run as an
// error). Messages from other epochs are silently discarded; on a bound
// communicator (WithEpoch) an expired context aborts the wait with an
// *AbortError panic instead of blocking forever on a dead peer.
func (c *Comm) Recv(from, tag int) []float32 {
	if from < 0 || from >= c.Size() {
		panic(fmt.Sprintf("comm: recv from invalid rank %d", from))
	}
	src, me := c.actual(from), c.actual(c.rank)
	link := c.world.links[src][me]
	for {
		var m message
		if c.abortCtx == nil {
			m = <-link
		} else {
			select {
			case m = <-link:
			case <-c.abortCtx.Done():
				panic(&AbortError{Rank: me, Peer: src, Op: "recv", Err: c.abortCtx.Err()})
			}
		}
		if m.epoch != c.epoch {
			c.world.stale.Add(1)
			continue
		}
		if m.tag != tag {
			panic(fmt.Sprintf("comm: rank %d expected tag %d from %d, got %d", c.rank, tag, from, m.tag))
		}
		return m.data
	}
}

// Internal collective tags live in a reserved negative range.
const (
	tagBarrier = -1
	tagReduce  = -2
	tagBcast   = -3
	tagGather  = -4
)

// Barrier blocks until every task has entered it.
func (c *Comm) Barrier() {
	// Central coordinator: everyone checks in with rank 0, rank 0 releases.
	if c.rank == 0 {
		for r := 1; r < c.Size(); r++ {
			c.Recv(r, tagBarrier)
		}
		for r := 1; r < c.Size(); r++ {
			c.Send(r, tagBarrier, nil)
		}
		return
	}
	c.Send(0, tagBarrier, nil)
	c.Recv(0, tagBarrier)
}

// AllReduce combines one float64 from every task with op and returns the
// result on every task.
func (c *Comm) AllReduce(v float64, op func(a, b float64) float64) float64 {
	// Reduce to 0 with float64 precision carried in two float32 words.
	hi, lo := splitFloat64(v)
	buf := []float32{hi, lo}
	if c.rank == 0 {
		acc := v
		for r := 1; r < c.Size(); r++ {
			m := c.Recv(r, tagReduce)
			acc = op(acc, joinFloat64(m[0], m[1]))
		}
		h, l := splitFloat64(acc)
		out := []float32{h, l}
		for r := 1; r < c.Size(); r++ {
			c.Send(r, tagBcast, out)
		}
		return acc
	}
	c.Send(0, tagReduce, buf)
	m := c.Recv(0, tagBcast)
	return joinFloat64(m[0], m[1])
}

// AllReduceMax returns the maximum of v across tasks.
func (c *Comm) AllReduceMax(v float64) float64 {
	return c.AllReduce(v, func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	})
}

// AllReduceMin returns the minimum of v across tasks.
func (c *Comm) AllReduceMin(v float64) float64 {
	return c.AllReduce(v, func(a, b float64) float64 {
		if a < b {
			return a
		}
		return b
	})
}

// AllReduceSum returns the sum of v across tasks.
func (c *Comm) AllReduceSum(v float64) float64 {
	return c.AllReduce(v, func(a, b float64) float64 { return a + b })
}

// Gather collects each task's slice at the root (others get nil).
func (c *Comm) Gather(root int, data []float32) [][]float32 {
	if c.rank != root {
		c.Send(root, tagGather, data)
		return nil
	}
	out := make([][]float32, c.Size())
	cp := make([]float32, len(data))
	copy(cp, data)
	out[root] = cp
	for r := 0; r < c.Size(); r++ {
		if r == root {
			continue
		}
		out[r] = c.Recv(r, tagGather)
	}
	return out
}

// Bcast sends root's slice to every task and returns it (a copy).
func (c *Comm) Bcast(root int, data []float32) []float32 {
	if c.rank == root {
		for r := 0; r < c.Size(); r++ {
			if r != root {
				c.Send(r, tagBcast, data)
			}
		}
		cp := make([]float32, len(data))
		copy(cp, data)
		return cp
	}
	return c.Recv(root, tagBcast)
}

// splitFloat64 encodes a float64 into two float32 words losslessly enough
// for reductions (value + residual).
func splitFloat64(v float64) (float32, float32) {
	hi := float32(v)
	lo := float32(v - float64(hi))
	return hi, lo
}

func joinFloat64(hi, lo float32) float64 {
	return float64(hi) + float64(lo)
}
