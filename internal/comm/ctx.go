package comm

import (
	"context"
	"fmt"
)

// Context-aware point-to-point operations for service-lifetime endpoints.
// The study path uses the blocking Send/Recv pair — a one-shot collective
// job either completes or is a bug — but a serving router must bound how
// long it waits on a slow or wedged rank and must be able to shut down
// while blocked, so these variants select on the context alongside the
// link. Unlike Recv, a tag mismatch is reported as an error rather than a
// panic: on a long-lived transport a protocol hiccup should fail one
// request, not the process.

// SendCtx is Send bounded by a context: it delivers a copy of data unless
// the destination link stays full past the context's deadline or
// cancellation, in which case the message is not sent and the context's
// error is returned.
func (c *Comm) SendCtx(ctx context.Context, to, tag int, data []float32) error {
	if to < 0 || to >= c.Size() {
		return fmt.Errorf("comm: send to invalid rank %d", to)
	}
	cp := make([]float32, len(data))
	copy(cp, data)
	from, dst := c.actual(c.rank), c.actual(to)
	m := message{tag: tag, epoch: c.epoch, data: cp}
	if p := c.world.faults.Load(); p != nil {
		for _, out := range p.route(from, dst, m) {
			if err := c.pushCtx(ctx, from, dst, out); err != nil {
				return err
			}
		}
		return nil
	}
	return c.pushCtx(ctx, from, dst, m)
}

// pushCtx delivers one routed message, bounded by ctx.
func (c *Comm) pushCtx(ctx context.Context, from, dst int, m message) error {
	select {
	case c.world.links[from][dst] <- m:
		c.world.count(from, dst, m)
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// RecvCtx is Recv bounded by a context. A message carrying an unexpected
// tag is an error (the message is consumed — the link is presumed
// poisoned at that point and the caller should fail the exchange).
func (c *Comm) RecvCtx(ctx context.Context, from, tag int) ([]float32, error) {
	gotTag, data, err := c.RecvAnyCtx(ctx, from)
	if err != nil {
		return nil, err
	}
	if gotTag != tag {
		return nil, fmt.Errorf("comm: rank %d expected tag %d from %d, got %d", c.rank, tag, from, gotTag)
	}
	return data, nil
}

// RecvAnyCtx receives the next message from a rank regardless of tag,
// returning the tag alongside the payload — the demultiplexing primitive
// for a service loop that handles several message kinds (jobs, snapshot
// pushes, results) over one link. Messages from other epochs (stale
// leftovers of an abandoned exchange attempt) are silently discarded.
func (c *Comm) RecvAnyCtx(ctx context.Context, from int) (int, []float32, error) {
	if from < 0 || from >= c.Size() {
		return 0, nil, fmt.Errorf("comm: recv from invalid rank %d", from)
	}
	link := c.world.links[c.actual(from)][c.actual(c.rank)]
	for {
		select {
		case m := <-link:
			if m.epoch != c.epoch {
				c.world.stale.Add(1)
				continue
			}
			return m.tag, m.data, nil
		case <-ctx.Done():
			return 0, nil, ctx.Err()
		}
	}
}
