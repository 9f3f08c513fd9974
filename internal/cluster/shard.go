package cluster

import (
	"fmt"
	"time"

	"insitu/internal/comm"
	"insitu/internal/composite"
	"insitu/internal/core"
	"insitu/internal/framebuffer"
	"insitu/internal/lru"
	"insitu/internal/render"
	"insitu/internal/scenario"
)

// sliceKey identifies one cached shard slice: the simulation block a rank
// renders is a pure function of (proxy, size, decomposition, shard).
type sliceKey struct {
	sim              string
	n, shards, shard int
}

// sceneKey identifies one prepared scene: the slice plus the
// architecture and backend that prepare it (placement's shardKey).
// Image size and ray tracing workload are per frame, so every quality
// of a shard renders one scene.
type sceneKey struct {
	arch, backend string
	sliceKey
}

// shardState is one worker's long-lived render state: shard slices and
// prepared scenes cached across jobs (the hot state rendezvous placement
// protects), the rank's own devices and arenas, and a compositor whose
// per-rank scratch persists across exchanges. A shardState is confined
// to its worker's serial loop — no internal locking beyond the scene
// cache's own.
type shardState struct {
	slices *lru.Cache[sliceKey, *scenario.ShardData]
	scenes *scenario.SceneCache[sceneKey]
	arenas scenario.Arenas
	comp   *composite.Compositor
}

func newShardState(sliceCap, sceneCap int) *shardState {
	return &shardState{
		slices: lru.New[sliceKey, *scenario.ShardData](sliceCap),
		scenes: scenario.NewSceneCache[sceneKey](sceneCap),
		comp:   composite.BinarySwap(),
	}
}

// Close releases the rank's devices.
func (st *shardState) Close() { st.arenas.Close() }

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
	slice := sliceKey{job.Sim, job.N, job.Shards, shard}
	if rerr == nil {
		if v, ok := st.slices.Get(slice); ok {
			sd = v
		} else if sd, rerr = scenario.BuildShard(job.Sim, job.N, job.Shards, shard, 1); rerr == nil {
			st.slices.Add(slice, sd)
		}
	}
	view := g.ReduceView(sd)
	cam := render.OrbitCamera(view.Bounds, job.Azimuth, 20, job.Zoom)

	// Render the local partial image from this shard's prepared scene
	// (preparing it on first use) on the rank's arena of the backend.
	var (
		ps        *scenario.PreparedScene
		img       *framebuffer.Image
		renderSec float64
		buildSec  float64
		in        core.Inputs
	)
	if rerr == nil {
		ps, rerr = st.scenes.Get(sceneKey{job.Arch, job.Backend, slice}, func() (*scenario.PreparedScene, error) {
			dev, err := st.arenas.Device(job.Arch)
			if err != nil {
				return nil, err
			}
			return backend.PrepareScene(view.Scene(dev, sd, cam, job.Width, job.Height))
		})
	}
	if rerr == nil {
		buildSec = ps.BuildSeconds
		in = core.Inputs{Pixels: float64(job.Width * job.Height), Tasks: gc.Size()}
		f := scenario.Frame{Width: job.Width, Height: job.Height, Camera: cam, RTWorkload: job.RTWorkload}
		var elapsed time.Duration
		elapsed, img, rerr = st.arenas.Render(job.Arch, ps, f, &in)
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
		return nil, nil
	}
	// The composited image aliases compositor (or arena) scratch that
	// this shardState's next job overwrites, and it is returned without a
	// copy: the worker loop's encodeResult copies the pixels into the
	// result message before taking its next job, and RenderStandalone's
	// shardState renders no other job.
	return &wireResult{
		JobID:                job.JobID,
		W:                    out.W,
		H:                    out.H,
		In:                   in,
		BuildSeconds:         buildSec,
		RenderSeconds:        rt,
		CompositeSeconds:     ct,
		RankRenderSeconds:    perRank,
		RankCompositeSeconds: perComp,
	}, out
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
