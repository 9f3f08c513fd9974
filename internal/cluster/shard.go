package cluster

import (
	"fmt"
	"time"

	"insitu/internal/comm"
	"insitu/internal/composite"
	"insitu/internal/core"
	"insitu/internal/device"
	"insitu/internal/framebuffer"
	"insitu/internal/lru"
	"insitu/internal/render"
	"insitu/internal/scenario"
)

// sceneKey identifies one cached shard slice: the simulation block a rank
// renders is a pure function of (proxy, size, decomposition, shard).
type sceneKey struct {
	sim              string
	n, shards, shard int
}

// runnerKey identifies one prepared frame runner. It extends sceneKey
// with everything preparation bakes in: architecture, backend, image
// size, and ray-tracing workload.
type runnerKey struct {
	arch, backend, sim            string
	n, w, h, rt, shards, shardIdx int
}

// shardState is one worker's long-lived render state: sliced scenes and
// prepared runners cached across jobs (the hot state rendezvous placement
// protects), plus a compositor whose per-rank scratch persists across
// exchanges. A shardState is confined to its worker's serial loop — no
// internal locking beyond the runner cache's own.
type shardState struct {
	scenes  *lru.Cache[sceneKey, *scenario.ShardData]
	runners *scenario.RunnerCache[runnerKey]
	comp    *composite.Compositor
}

func newShardState(sceneCap, runnerCap int) *shardState {
	return &shardState{
		scenes:  lru.New[sceneKey, *scenario.ShardData](sceneCap),
		runners: scenario.NewRunnerCache[runnerKey](runnerCap),
		comp:    composite.BinarySwap(),
	}
}

func (st *shardState) Close() { st.runners.Close() }

// render executes one shard of a job on the group communicator gc, whose
// rank i is the renderer of shard i (the job's Members order). It runs
// the sort-last frame protocol of scenario.Group — the one the study
// measures — so served frames exercise exactly the configuration the
// models were fitted on: globally reduced bounds and scalar range, the
// shared orbit camera, per-rank local render, visibility-ordered
// sort-last composite, and max/avg reductions of the model inputs.
//
// Every collective here runs on every rank on every frame — ranks whose
// local setup failed contribute neutral values and the frame is discarded
// at the error barrier — so a cache miss or error on one rank can never
// desynchronize the group. Only the group leader (rank 0) returns a
// result; other ranks return (nil, nil).
func (st *shardState) render(gc *comm.Comm, job *wireJob) (*wireResult, *framebuffer.Image) {
	g := scenario.NewGroup(gc)
	shard := gc.Rank()
	leader := shard == 0

	// Local, fallible setup. Errors are recorded, not returned: the rank
	// must keep participating in the frame's collectives.
	var sd *scenario.ShardData
	backend, rerr := scenario.Lookup(core.Renderer(job.Backend))
	if rerr == nil {
		sk := sceneKey{job.Sim, job.N, job.Shards, shard}
		if v, ok := st.scenes.Get(sk); ok {
			sd = v
		} else if sd, rerr = scenario.BuildShard(job.Sim, job.N, job.Shards, shard, 1); rerr == nil {
			st.scenes.Add(sk, sd)
		}
	}
	view := g.ReduceView(sd)
	cam := render.OrbitCamera(view.Bounds, job.Azimuth, 20, job.Zoom)

	// Lease this shard's prepared runner (preparing on first use) and
	// render the local partial image.
	var (
		lease     *scenario.RunnerLease[runnerKey]
		img       *framebuffer.Image
		renderSec float64
		buildSec  float64
		in        core.Inputs
	)
	// A bound communicator abandons the attempt by panicking mid-
	// collective when its deadline expires (see renderJob); the deferred
	// release keeps the runner lease from leaking on that path.
	released := false
	rel := func() {
		if lease != nil && !released {
			released = true
			lease.Release()
		}
	}
	defer rel()
	if rerr == nil {
		rk := runnerKey{job.Arch, job.Backend, job.Sim, job.N, job.Width, job.Height, job.RTWorkload, job.Shards, shard}
		lease, rerr = st.runners.Acquire(rk, func() (scenario.FrameRunner, func(), error) {
			dev, err := device.Profile(job.Arch)
			if err != nil {
				return nil, nil, err
			}
			sc := view.Scene(dev, sd, cam, job.Width, job.Height)
			sc.RTWorkload = job.RTWorkload
			r, err := backend.Prepare(sc)
			if err != nil {
				dev.Close()
				return nil, nil, err
			}
			return r, dev.Close, nil
		})
	}
	if rerr == nil {
		runner := lease.Runner()
		runner.SetCamera(cam)
		buildSec = runner.BuildSeconds()
		in = core.Inputs{Pixels: float64(job.Width * job.Height), Tasks: gc.Size()}
		var elapsed time.Duration
		elapsed, img, rerr = runner.RenderFrame(&in)
		renderSec = elapsed.Seconds()
	}

	// Error barriers: the frame fails as a unit or proceeds as a unit.
	var out *framebuffer.Image
	compSec := 0.0
	err := g.Agree(shardErr(rerr, job, shard, ""))
	if err == nil {
		op := backend.CompositeOp()
		out, compSec, err = g.Composite(st.comp, img, op, g.BlendOrder(op, sd.LocalBounds, cam))
		err = g.Agree(shardErr(err, job, shard, " composite"))
	}
	if err != nil {
		rel()
		if !leader {
			return nil, nil
		}
		return &wireResult{JobID: job.JobID, Err: err.Error()}, nil
	}

	// Reduce the measurements and model inputs the calibrator consumes.
	rt := g.Max(renderSec)
	ct := g.Max(compSec)
	in, buildSec = g.ReduceInputs(in, buildSec)
	perRank := g.Gather(renderSec)
	// Per-rank composite spans ride back with the render spans so the
	// trace can blame a slow exchange on a specific rank. Unconditional:
	// every rank runs every collective on every frame.
	perComp := g.Gather(compSec)

	if !leader {
		rel()
		return nil, nil
	}
	// The composited image aliases compositor (or runner-arena) scratch
	// that the next job on this worker will overwrite: deep-copy before
	// releasing the lease.
	final := framebuffer.NewImage(out.W, out.H)
	final.CopyFrom(out)
	rel()
	return &wireResult{
		JobID:                job.JobID,
		W:                    final.W,
		H:                    final.H,
		In:                   in,
		BuildSeconds:         buildSec,
		RenderSeconds:        rt,
		CompositeSeconds:     ct,
		RankRenderSeconds:    perRank,
		RankCompositeSeconds: perComp,
	}, final
}

// shardErr labels a rank-local failure with the shard it happened on, so
// the leader's joined message names every failing shard.
func shardErr(err error, job *wireJob, shard int, stage string) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("shard %d/%d%s: %w", shard, job.Shards, stage, err)
}

// renderJob runs render under an abort guard: when the attempt's bound
// communicator panics with *comm.AbortError — the deadline expired or a
// member was evicted while this rank was blocked in a collective — the
// abandonment becomes a retryable result on the group leader and a
// stuck-peer report (the world rank this member was blocked on, -1 when
// none) on every rank, instead of crashing the worker loop. Application
// errors still travel through render's error barrier and stay
// non-retryable.
func (st *shardState) renderJob(gc *comm.Comm, job *wireJob) (res *wireResult, img *framebuffer.Image, stuckOn int) {
	stuckOn = -1
	defer func() {
		if p := recover(); p != nil {
			ab, ok := p.(*comm.AbortError)
			if !ok {
				panic(p)
			}
			stuckOn = ab.Peer
			img = nil
			res = nil
			if gc.Rank() == 0 {
				res = &wireResult{JobID: job.JobID, Err: ab.Error(), Retryable: true}
			}
		}
	}()
	res, img = st.render(gc, job)
	return
}
