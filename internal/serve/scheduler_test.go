package serve

import (
	"testing"
	"time"
)

// TestSchedulerBackgroundGrace: a background job is not runnable until
// bgGrace after its submission, and it sits out the grace in the queue,
// not on a worker — on a one-worker pool a foreground job submitted
// meanwhile runs at once, ahead of it.
func TestSchedulerBackgroundGrace(t *testing.T) {
	const grace = 200 * time.Millisecond
	sched := newScheduler(1, 16, 16)
	sched.bgGrace = grace
	defer sched.close()

	ran := make(chan string, 2)
	submitted := time.Now()
	var bgStart time.Time
	if err := sched.submitBackground(func(*workerState) { bgStart = time.Now(); ran <- "bg" }, nil); err != nil {
		t.Fatal(err)
	}
	if err := sched.submit(time.Time{}, 0, func(*workerState) { ran <- "fg" }); err != nil {
		t.Fatal(err)
	}
	if stalled := time.Since(submitted); stalled >= grace {
		t.Skipf("host stalled %v between two submissions; the order says nothing", stalled)
	}
	if got := <-ran; got != "fg" {
		t.Fatalf("%q ran first, want fg", got)
	}
	if got := <-ran; got != "bg" {
		t.Fatalf("%q ran second, want bg", got)
	}
	if waited := bgStart.Sub(submitted); waited < grace {
		t.Errorf("background job started %v after submission, want >= %v", waited, grace)
	}
}
