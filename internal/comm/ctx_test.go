package comm

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRecvCtxTimesOutOnSlowRank pins the router's failure mode for a
// wedged worker: a receive against a rank that has not sent yet returns
// the context's deadline error instead of blocking forever, and the late
// message stays queued for a later receive instead of being lost.
func TestRecvCtxTimesOutOnSlowRank(t *testing.T) {
	w := NewWorld(2)
	slow := w.Endpoint(1)
	router := w.Endpoint(0)

	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-release // the slow rank renders far past the deadline
		slow.Send(0, 7, []float32{42})
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := router.RecvCtx(ctx, 1, 7); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("recv from slow rank: err = %v, want DeadlineExceeded", err)
	}

	// The exchange failed but the transport did not: the late message is
	// still delivered in order once the slow rank gets around to sending.
	close(release)
	data, err := router.RecvCtx(context.Background(), 1, 7)
	if err != nil {
		t.Fatalf("late message lost: %v", err)
	}
	if len(data) != 1 || data[0] != 42 {
		t.Fatalf("late message corrupted: %v", data)
	}
	wg.Wait()
}

// TestSendCtxCancelledOnFullLink: a sender facing a receiver that stopped
// draining unblocks on cancellation, and the cancelled message is never
// delivered (no partial sends).
func TestSendCtxCancelledOnFullLink(t *testing.T) {
	w := NewWorld(2)
	c := w.Endpoint(0)
	// Fill the (0 -> 1) link's buffer.
	filled := 0
	for {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		err := c.SendCtx(ctx, 1, 1, []float32{float32(filled)})
		cancel()
		if err != nil {
			break
		}
		filled++
		if filled > 1<<16 {
			t.Fatal("link buffer appears unbounded")
		}
	}
	if filled == 0 {
		t.Fatal("could not fill the link buffer")
	}

	msgsBefore := w.MessagesSent()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.SendCtx(ctx, 1, 1, []float32{1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("send on full link with cancelled ctx: err = %v, want Canceled", err)
	}
	if got := w.MessagesSent(); got != msgsBefore {
		t.Fatalf("cancelled send was counted as delivered: %d -> %d", msgsBefore, got)
	}

	// Drain: exactly the successfully sent messages arrive, in order.
	r := w.Endpoint(1)
	for i := 0; i < filled; i++ {
		data, err := r.RecvCtx(context.Background(), 0, 1)
		if err != nil {
			t.Fatalf("draining message %d: %v", i, err)
		}
		if data[0] != float32(i) {
			t.Fatalf("message %d out of order: got %v", i, data[0])
		}
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel2()
	if _, err := r.RecvCtx(ctx2, 0, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled message was delivered anyway: err = %v", err)
	}
}

// TestBoundSendAbortedOnFullLinkIsNotCounted: a WithEpoch send that
// aborts on a full link delivered nothing, so the world's and the link's
// traffic totals do not move.
func TestBoundSendAbortedOnFullLinkIsNotCounted(t *testing.T) {
	w := NewWorld(2)
	c := w.Endpoint(0)
	for i := 0; i < cap(w.links[0][1]); i++ {
		c.Send(1, 1, []float32{float32(i)})
	}
	bytes, msgs, links := w.BytesSent(), w.MessagesSent(), w.LinkStats()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	func() {
		defer func() {
			var abort *AbortError
			if err, _ := recover().(error); !errors.As(err, &abort) || abort.Op != "send" {
				t.Fatalf("bound send on a full link with a cancelled context: recovered %v, want a send *AbortError", err)
			}
		}()
		c.WithEpoch(ctx, 1).Send(1, 1, []float32{1, 2, 3})
	}()

	if got := w.BytesSent(); got != bytes {
		t.Errorf("BytesSent %d -> %d after an aborted send", bytes, got)
	}
	if got := w.MessagesSent(); got != msgs {
		t.Errorf("MessagesSent %d -> %d after an aborted send", msgs, got)
	}
	if got := w.LinkStats(); len(got) != 1 || got[0] != links[0] {
		t.Errorf("LinkStats %+v -> %+v after an aborted send", links, got)
	}
}

// TestRecvCtxTagMismatchIsAnError: on a long-lived endpoint a protocol
// mismatch fails the exchange with an error naming both tags instead of
// panicking the process.
func TestRecvCtxTagMismatchIsAnError(t *testing.T) {
	w := NewWorld(2)
	w.Endpoint(1).Send(0, 3, []float32{1})
	_, err := w.Endpoint(0).RecvCtx(context.Background(), 1, 9)
	if err == nil {
		t.Fatal("tag mismatch accepted")
	}
	if !strings.Contains(err.Error(), "tag 9") || !strings.Contains(err.Error(), "got 3") {
		t.Fatalf("mismatch error does not name the tags: %v", err)
	}
}

// TestRecvAnyCtxDemultiplexes: a single service loop can sort several
// message kinds arriving over one link by the returned tag, in send
// order.
func TestRecvAnyCtxDemultiplexes(t *testing.T) {
	w := NewWorld(2)
	s := w.Endpoint(0)
	s.Send(1, 10, []float32{1})
	s.Send(1, 20, []float32{2})
	s.Send(1, 10, []float32{3})

	r := w.Endpoint(1)
	wantTags := []int{10, 20, 10}
	for i, want := range wantTags {
		tag, data, err := r.RecvAnyCtx(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if tag != want || data[0] != float32(i+1) {
			t.Fatalf("message %d: tag %d data %v, want tag %d data %d", i, tag, data, want, i+1)
		}
	}
}

// TestCancelledExchangeLeavesWorldUsable: a multi-rank exchange aborted
// mid-flight (one receiver gives up) must not wedge the world for later,
// well-behaved exchanges — the router's recovery story after a deadline
// miss.
func TestCancelledExchangeLeavesWorldUsable(t *testing.T) {
	w := NewWorld(3)
	ctx, cancel := context.WithCancel(context.Background())

	var wg sync.WaitGroup
	wg.Add(1)
	errc := make(chan error, 1)
	go func() {
		defer wg.Done()
		// Rank 0 waits on rank 2, which never sends in this exchange.
		_, err := w.Endpoint(0).RecvCtx(ctx, 2, 5)
		errc <- err
	}()
	cancel()
	wg.Wait()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("aborted exchange: err = %v, want Canceled", err)
	}

	// A fresh exchange over the same ranks completes normally.
	done := make(chan struct{})
	go func() {
		w.Endpoint(2).Send(0, 5, []float32{9})
		close(done)
	}()
	data, err := w.Endpoint(0).RecvCtx(context.Background(), 2, 5)
	if err != nil || data[0] != 9 {
		t.Fatalf("world wedged after cancelled exchange: %v %v", data, err)
	}
	<-done
}
