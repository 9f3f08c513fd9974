// Package cluster partitions one admitted frame across a fleet of worker
// ranks — the serving-path analogue of the paper's distributed-memory
// setting, where every image is rendered by many tasks and finished by a
// sort-last composite whose cost Tc the fitted model predicts.
//
// Topology: a comm.World of size workers+1 holds rank 0 as the router
// (owned by the serving layer) and ranks 1..W as long-lived worker loops.
// Each worker serially drains its link from the router, rendering jobs in
// arrival order. A job names the worker ranks it spans (chosen by
// rendezvous placement over the shard's runner-cache identity, so a
// shard's prepared scene and device stay hot on one rank); those workers
// form a comm sub-communicator, render their shard of the weak-scaled
// domain decomposition through the sort-last frame protocol of
// scenario.Group — the one the study measures the models with: global
// bounds and scalar range, visibility order, composite via
// internal/composite, model-input reduction — and the group leader ships
// the finished image back to the router.
//
// Deadlock freedom: the router serializes dispatch under one mutex, so
// jobs have a global total order; every worker processes its router link
// FIFO and serially, so when two jobs share workers, all shared workers
// execute them in the same order and inter-worker waits always point from
// later jobs to earlier ones — the wait graph is acyclic. Group
// collectives (bounds, field range, error barrier) run on every rank on
// every frame, even when local setup failed, so cache hit/miss asymmetry
// can never desynchronize an exchange.
//
// The models stay on the router. Admission prices a frame (max(T_local)
// + Tc) before it is dispatched, and no worker reads a model to render
// its shard, so the router->worker links carry only jobs and evictions
// and the worker->router links carry heartbeats, completion notes and
// finished frames.
//
// # Fault tolerance
//
// Failure detection runs on three independent signals. Each worker
// beacons liveness on its own goroutine (tagHeartbeat), so a rank busy
// rendering still proves it is alive; the router's monitor evicts ranks
// whose traffic stops for longer than Options.HeartbeatTimeout. Every
// render attempt carries an absolute deadline — a context the router
// shares with the attempt's workers — so a survivor blocked on a dead
// peer's collective aborts instead of wedging. And every member's
// completion note (tagFrameDone) reports the world rank it was blocked
// on when it aborted; these stuck-peer reports feed per-rank blame
// counters that evict wedged-but-beaconing ranks — the stalled-link
// failure mode heartbeats cannot see.
//
// Abandoning an exchange safely is the comm layer's WithEpoch contract:
// a job's group communicator is bound to the attempt's context and to
// the attempt id as its message epoch. Blocking operations — including
// everything the composite package does — abort by panicking with
// *comm.AbortError once the context expires (deadline reached, or a
// member evicted mid-attempt, which cancels the shared context so
// survivors abort immediately). The panic is recovered at the attempt
// boundary (renderJob), never crossing a frame. Messages a failed
// attempt left in flight are stamped with its epoch and silently
// discarded by the retry's receives, so stale payloads cannot alias
// retry traffic.
//
// Recovery: eviction is sticky — the rank leaves the placement ring
// (alive count, AliveWorkers), its in-flight attempts are cancelled, and
// it is told to drop its shard caches (tagEvict). Before re-dispatching
// a failed frame, the router runs a drain barrier: it waits for every
// live member's completion note, proof the member is out of the old
// exchange; members silent past the grace window are evicted as dead.
// The retry then re-places over survivors — rendezvous hashing moves
// only the shards whose rank died, every other shard keeps its warm
// caches — with exponential backoff charged against the caller's
// deadline. When survivors cannot host the requested shard count or the
// attempt budget is exhausted, Render returns a typed *RankFailure
// naming the dead ranks; the serving layer uses it to re-plan at a
// feasible shard count or fall back to standalone rendering. Recovery
// changes where shards run, never what they produce: a recovered frame
// is byte-identical to the standalone reference (chaos_test.go holds
// this across kill, stall, and drop faults).
package cluster
