package cluster

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"insitu/internal/comm"
	"insitu/internal/core"
	"insitu/internal/framebuffer"
)

// chaosOpts are the fast-converging fault-tolerance settings the chaos
// suite runs under: sub-second detection and drain so each scenario
// resolves in a few seconds, MaxAttempts high enough that recovery —
// not the retry budget — decides the outcome.
func chaosOpts(plan *comm.FaultPlan) Options {
	return Options{
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  time.Second,
		AttemptTimeout:    time.Second,
		DrainGrace:        300 * time.Millisecond,
		RetryBackoff:      5 * time.Millisecond,
		MaxAttempts:       3,
		Faults:            plan,
	}
}

func chaosCluster(t testing.TB, workers int, opts Options) *Cluster {
	t.Helper()
	cl, err := NewWithOptions(workers, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

func chaosJob(azimuth float64) Job {
	return Job{
		Backend: string(core.Raster), Sim: "lulesh", Arch: "serial",
		N: 8, Width: 40, Height: 40, Shards: 3, Azimuth: azimuth, Zoom: 1,
	}
}

// renderOK renders one frame with a generous deadline and fails the test
// on error — the "never wedges" half of every chaos assertion is that
// this returns at all.
func renderOK(t *testing.T, cl *Cluster, job Job) *Result {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := cl.Render(ctx, job)
	if err != nil {
		t.Fatalf("render: %v (evictions: %v)", err, cl.EvictReasons())
	}
	return res
}

// wantStandalone asserts a recovered cluster frame is byte-identical to
// the standalone reference: recovery must change where shards run, never
// what they produce.
func wantStandalone(t *testing.T, job Job, img *framebuffer.Image) {
	t.Helper()
	want, err := RenderStandalone(job)
	if err != nil {
		t.Fatal(err)
	}
	if img.W != want.Image.W || img.H != want.Image.H {
		t.Fatalf("recovered frame is %dx%d, standalone %dx%d", img.W, img.H, want.Image.W, want.Image.H)
	}
	for i := range img.Color {
		if img.Color[i] != want.Image.Color[i] {
			t.Fatalf("recovered frame diverges from standalone at color word %d: %v vs %v", i, img.Color[i], want.Image.Color[i])
		}
	}
}

// waitEvicted polls until the rank is evicted or the deadline passes.
func waitEvicted(t *testing.T, cl *Cluster, rank int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cl.isDead(rank) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("rank %d not evicted within deadline (reasons: %v)", rank, cl.EvictReasons())
}

// TestChaosKillMidFrameRecovers kills a frame member after its first few
// sends — mid-collective — and requires the frame to complete via
// eviction plus retry, byte-identical to the standalone reference, with
// the fleet still serving afterwards.
func TestChaosKillMidFrameRecovers(t *testing.T) {
	job := chaosJob(30)
	members, err := placeShards(4, nil, &job)
	if err != nil {
		t.Fatal(err)
	}
	victim := members[1]
	plan := comm.NewFaultPlan(7)
	// The victim's first sends are its shares of the frame's six bounds
	// all-reductions, so it dies on the fifth, inside the global bounds
	// reduction. Survivors block on the dead rank; the heartbeat monitor
	// must evict it and cancel the attempt well before the attempt
	// deadline.
	plan.KillRankAfterSends(victim, 4)
	cl := chaosCluster(t, 4, chaosOpts(plan))

	res := renderOK(t, cl, job)
	wantStandalone(t, job, res.Image)

	st := cl.Stats()
	if st.Retries < 1 {
		t.Errorf("recovery took %d retries, want >= 1", st.Retries)
	}
	if !cl.isDead(victim) {
		t.Errorf("killed rank %d not evicted (dead: %v, reasons: %v)", victim, st.DeadRanks, cl.EvictReasons())
	}
	if st.AliveWorkers != 3 {
		t.Errorf("alive workers %d, want 3", st.AliveWorkers)
	}

	// The degraded fleet keeps serving: new frames place over survivors
	// with no further retries needed.
	before := st.Retries
	next := chaosJob(75)
	res2 := renderOK(t, cl, next)
	wantStandalone(t, next, res2.Image)
	if after := cl.Stats().Retries; after != before {
		t.Errorf("post-recovery frame needed %d retries", after-before)
	}
}

// TestChaosLinkStallEvictsAndRecovers stalls one worker->worker link so
// a rank keeps beaconing while its group traffic silently vanishes — the
// failure mode heartbeats cannot see. The mutual stuck-peer blame from
// the drained attempt must evict one endpoint of the stalled link, after
// which the retry re-places around it.
func TestChaosLinkStallEvictsAndRecovers(t *testing.T) {
	job := chaosJob(120)
	members, err := placeShards(4, nil, &job)
	if err != nil {
		t.Fatal(err)
	}
	plan := comm.NewFaultPlan(11)
	// Every group message from member 1 to the group leader vanishes,
	// starting with the first: the leader wedges in the bounds reduction
	// while all three ranks stay live.
	plan.StallAfter(members[1], members[0], 1)
	cl := chaosCluster(t, 4, chaosOpts(plan))

	res := renderOK(t, cl, job)
	wantStandalone(t, job, res.Image)

	st := cl.Stats()
	if st.Retries < 1 {
		t.Errorf("recovery took %d retries, want >= 1", st.Retries)
	}
	if st.Evictions < 1 {
		t.Fatalf("stalled link evicted nobody (stats %+v)", st)
	}
	// Fault localization on a stalled link is inherently ambiguous — the
	// blocked leader blames the staller, the staller's peers blame the
	// blocked leader — but whatever is evicted must be a stalled-link
	// endpoint, for the stated blame reason.
	for rank, reason := range cl.EvictReasons() {
		if rank != members[0] && rank != members[1] {
			t.Errorf("evicted rank %d is not an endpoint of the stalled link %d->%d", rank, members[1], members[0])
		}
		if !strings.Contains(reason, "blamed") {
			t.Errorf("rank %d evicted for %q, want a blame eviction", rank, reason)
		}
	}

	res2 := renderOK(t, cl, chaosJob(200))
	if res2.Image == nil {
		t.Fatal("post-recovery frame has no image")
	}
}

// TestChaosTransientDropHealsByRetry drops exactly one collective
// message. The attempt wedges and aborts, but with the blame threshold
// out of reach nobody is evicted: the retry reuses the same placement,
// discards the failed attempt's stale traffic by epoch, and succeeds.
func TestChaosTransientDropHealsByRetry(t *testing.T) {
	job := chaosJob(240)
	members, err := placeShards(4, nil, &job)
	if err != nil {
		t.Fatal(err)
	}
	plan := comm.NewFaultPlan(13)
	// Drop the first message member 1 sends the leader: its contribution
	// to the first bounds reduction.
	plan.DropNth(members[1], members[0], 1)
	opts := chaosOpts(plan)
	// One failed attempt charges at most two blame reports per rank;
	// keep the threshold above that so the transient stays transient.
	opts.BlameThreshold = 3
	cl := chaosCluster(t, 4, opts)

	res := renderOK(t, cl, job)
	wantStandalone(t, job, res.Image)

	st := cl.Stats()
	if st.Retries < 1 {
		t.Errorf("drop healed with %d retries, want >= 1", st.Retries)
	}
	if st.Evictions != 0 || len(st.DeadRanks) != 0 {
		t.Errorf("transient drop evicted ranks %v (reasons %v)", st.DeadRanks, cl.EvictReasons())
	}
	if st.StaleDrops < 1 {
		t.Errorf("retry consumed no stale messages (StaleDrops=%d); epoch filter untested", st.StaleDrops)
	}
}

// TestChaosSeededDropMatrix runs a deterministic random-drop storm on
// every worker->worker link and drives frames the way the serving layer
// does: each typed *RankFailure re-plans at a lower shard count. Every
// frame must eventually be served correctly — a single-shard frame uses
// no faulted link, so the ladder always has a floor — and no failure may
// be untyped or a hang.
func TestChaosSeededDropMatrix(t *testing.T) {
	plan := comm.NewFaultPlan(42)
	const workers = 4
	for from := 1; from <= workers; from++ {
		for to := 1; to <= workers; to++ {
			if from != to {
				plan.DropEvery(from, to, 0.05)
			}
		}
	}
	opts := chaosOpts(plan)
	opts.MaxAttempts = 2
	cl := chaosCluster(t, workers, opts)

	for i := 0; i < 4; i++ {
		job := chaosJob(float64(30 + 60*i))
		served := false
		for k := min(job.Shards, cl.AliveWorkers()); k >= 1; k-- {
			job.Shards = k
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			res, err := cl.Render(ctx, job)
			cancel()
			if err != nil {
				var rf *RankFailure
				if !errors.As(err, &rf) {
					t.Fatalf("frame %d at %d shards failed untyped: %v", i, k, err)
				}
				continue
			}
			wantStandalone(t, job, res.Image)
			served = true
			break
		}
		if !served {
			t.Fatalf("frame %d not served at any shard count (stats %+v, reasons %v)", i, cl.Stats(), cl.EvictReasons())
		}
	}
}

// TestChaosHeartbeatEviction kills an idle rank — no frame in flight —
// and requires the beacon monitor alone to evict it, stickily, with
// subsequent placement simply routing around the hole.
func TestChaosHeartbeatEviction(t *testing.T) {
	plan := comm.NewFaultPlan(3)
	cl := chaosCluster(t, 3, chaosOpts(plan))
	plan.KillRank(2)
	waitEvicted(t, cl, 2)

	if reason := cl.EvictReasons()[2]; !strings.Contains(reason, "heartbeat") {
		t.Errorf("rank 2 evicted for %q, want heartbeat timeout", reason)
	}
	if got := cl.AliveWorkers(); got != 2 {
		t.Errorf("alive workers %d, want 2", got)
	}

	// Placement already excludes the dead rank: the next frame needs no
	// retry at all.
	job := chaosJob(45)
	job.Shards = 2
	res := renderOK(t, cl, job)
	wantStandalone(t, job, res.Image)
	if st := cl.Stats(); st.Retries != 0 {
		t.Errorf("frame after idle eviction needed %d retries, want 0", st.Retries)
	}
}

// TestChaosRankFailureIsTyped shrinks the fleet below the requested
// shard count and requires the typed *RankFailure naming the dead ranks
// — the signal the serving layer re-plans on — while smaller requests
// keep working.
func TestChaosRankFailureIsTyped(t *testing.T) {
	plan := comm.NewFaultPlan(5)
	cl := chaosCluster(t, 2, chaosOpts(plan))
	plan.KillRank(1)
	waitEvicted(t, cl, 1)

	job := chaosJob(90)
	job.Shards = 2
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err := cl.Render(ctx, job)
	var rf *RankFailure
	if !errors.As(err, &rf) {
		t.Fatalf("infeasible shard count returned %v, want *RankFailure", err)
	}
	if len(rf.Ranks) != 1 || rf.Ranks[0] != 1 {
		t.Errorf("RankFailure names ranks %v, want [1]", rf.Ranks)
	}

	job.Shards = 1
	res := renderOK(t, cl, job)
	wantStandalone(t, job, res.Image)
}

// TestChaosRetryBudgetExhaustedIsTyped wedges a fleet with no spare
// capacity: eviction leaves fewer survivors than shards, so recovery is
// impossible and Render must fail typed — within the attempt budget, not
// by hanging.
func TestChaosRetryBudgetExhaustedIsTyped(t *testing.T) {
	job := chaosJob(150)
	members, err := placeShards(3, nil, &job)
	if err != nil {
		t.Fatal(err)
	}
	plan := comm.NewFaultPlan(17)
	plan.StallAfter(members[1], members[0], 1)
	cl := chaosCluster(t, 3, chaosOpts(plan))

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, rerr := cl.Render(ctx, job)
	var rf *RankFailure
	if !errors.As(rerr, &rf) {
		t.Fatalf("unrecoverable fleet returned %v, want *RankFailure", rerr)
	}
	if rf.Attempts < 1 || rf.Attempts > cl.opts.MaxAttempts {
		t.Errorf("RankFailure after %d attempts, want within [1,%d]", rf.Attempts, cl.opts.MaxAttempts)
	}
	if len(rf.Ranks) == 0 {
		t.Error("RankFailure names no dead ranks")
	}
	if rf.Unwrap() == nil {
		t.Error("RankFailure carries no underlying attempt error")
	}
}

// TestChaosRouterLinksCarryOnlyJobs publishes models on the router
// between two frames and counts what crossed each router->worker link:
// exactly one message (the job) per frame whose membership includes the
// worker. The models stay with admission; nothing is pushed to workers,
// so a publish adds no traffic and the seeded timelines keep their
// indices across one.
func TestChaosRouterLinksCarryOnlyJobs(t *testing.T) {
	const workers = 3
	reg := testRegistry(t)
	cl, err := New(reg, workers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)

	want := make([]int64, workers+1)
	for i, shards := range []int{2, 3} {
		if i > 0 {
			if err := reg.Load(testSnapshot()); err != nil {
				t.Fatal(err)
			}
		}
		job := chaosJob(float64(30 + 60*i))
		job.Shards = shards
		members, err := placeShards(workers, nil, &job)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range members {
			want[w]++
		}
		renderOK(t, cl, job)
	}

	st := cl.Stats()
	if st.FramesDispatched != 2 || st.Evictions != 0 {
		t.Fatalf("dispatched %d frames with %d evictions, want 2 and 0", st.FramesDispatched, st.Evictions)
	}
	got := make([]int64, workers+1)
	for _, l := range st.Links {
		if l.From == 0 {
			got[l.To] = l.Messages
		}
	}
	for w := 1; w <= workers; w++ {
		if got[w] != want[w] {
			t.Errorf("router->%d carried %d messages, want %d (one job per frame it was in)", w, got[w], want[w])
		}
	}
}

// TestChaosDuplicateResultDeliveredOnce duplicates a finished frame on
// the group leader's link to the router. The first copy completes the
// Render and the second is dropped without blocking the demux loop, so
// the next frame, led by the same rank, still renders byte-identically.
func TestChaosDuplicateResultDeliveredOnce(t *testing.T) {
	job := chaosJob(60)
	members, err := placeShards(4, nil, &job)
	if err != nil {
		t.Fatal(err)
	}
	plan := comm.NewFaultPlan(19)
	// Beacons are pushed past the test, so the leader's link to the
	// router carries only the frame's completion note, then its result.
	plan.DupNth(members[0], 0, 2)
	opts := chaosOpts(plan)
	opts.HeartbeatInterval = time.Hour
	opts.HeartbeatTimeout = 2 * time.Hour
	cl := chaosCluster(t, 4, opts)

	res := renderOK(t, cl, job)
	wantStandalone(t, job, res.Image)
	if d := plan.Stats().Duplicated; d != 1 {
		t.Fatalf("plan duplicated %d messages, want the one result", d)
	}

	// The camera is not part of the shard key: same members, same leader.
	next := chaosJob(150)
	res2 := renderOK(t, cl, next)
	wantStandalone(t, next, res2.Image)
	if st := cl.Stats(); st.FramesDispatched != 2 || st.Retries != 0 {
		t.Errorf("dispatched %d frames with %d retries, want 2 and 0", st.FramesDispatched, st.Retries)
	}
	if n := inFlight(cl); n != 0 {
		t.Errorf("%d attempts left in the table", n)
	}
}

// TestChaosAttemptTableEmptiesOnEveryExit ends a Render each way it can
// end (a frame, an application error, a caller's cancelled ctx, and an
// attempt abandoned on a stalled link and recovered by retry) and
// requires the router's attempt table to be empty after each, so late
// results and notes find nothing to deliver to.
func TestChaosAttemptTableEmptiesOnEveryExit(t *testing.T) {
	plan := comm.NewFaultPlan(23)
	cl := chaosCluster(t, 4, chaosOpts(plan))
	empty := func(after string) {
		t.Helper()
		if n := inFlight(cl); n != 0 {
			t.Errorf("%d attempts left in the table after %s", n, after)
		}
	}

	job := chaosJob(30)
	renderOK(t, cl, job)
	empty("a frame")

	bad := chaosJob(30)
	bad.Backend, bad.Shards = string(core.Volume), 2 // structured-only backend on lulesh
	if _, err := cl.Render(context.Background(), bad); err == nil {
		t.Fatal("volume on lulesh served a frame")
	}
	empty("an application error")

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cl.Render(ctx, job); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled caller got %v, want context.Canceled", err)
	}
	empty("a cancelled caller")

	stalled := chaosJob(120)
	members, err := placeShards(4, nil, &stalled)
	if err != nil {
		t.Fatal(err)
	}
	plan.StallAfter(members[1], members[0], 1)
	res := renderOK(t, cl, stalled)
	wantStandalone(t, stalled, res.Image)
	if st := cl.Stats(); st.Retries < 1 {
		t.Errorf("stalled link abandoned no attempt (retries %d)", st.Retries)
	}
	empty("an abandoned attempt")
}

// inFlight is the size of the router's attempt table.
func inFlight(cl *Cluster) int {
	cl.attemptMu.Lock()
	defer cl.attemptMu.Unlock()
	return len(cl.attempts)
}
