package cluster

import (
	"errors"

	"insitu/internal/comm"
	"insitu/internal/framebuffer"
)

// RenderStandalone renders a job's full shard group in one collective
// run over a private world, with no router, placement, or caching — the
// single-node reference the cluster path is tested byte-for-byte against.
// It executes exactly the same per-shard routine as the worker loops —
// scenario.Group's sort-last protocol, the one the study and the in situ
// pipeline run too — so any divergence in the served path is a transport
// or bookkeeping bug, never a rendering difference.
func RenderStandalone(job Job) (*Result, error) {
	k := job.Shards
	if k < 1 {
		return nil, errors.New("cluster: standalone render needs >= 1 shard")
	}
	members := make([]int, k)
	for i := range members {
		members[i] = i
	}
	wj := wireJob{
		Backend: job.Backend, Sim: job.Sim, Arch: job.Arch,
		N: job.N, Width: job.Width, Height: job.Height,
		Shards: k, RTWorkload: job.RTWorkload,
		Azimuth: job.Azimuth, Zoom: job.Zoom,
		Members: members,
	}
	type out struct {
		res *wireResult
		img *framebuffer.Image
	}
	world := comm.NewWorld(k)
	outs, err := comm.RunCollect(world, func(c *comm.Comm) (out, error) {
		st := newShardState(1, 1)
		defer st.Close()
		res, img := st.render(c, &wj)
		if res != nil && res.Err != "" {
			return out{}, errors.New(res.Err)
		}
		return out{res, img}, nil
	})
	if err != nil {
		return nil, err
	}
	lead := outs[0]
	if lead.res == nil || lead.img == nil {
		return nil, errors.New("cluster: standalone render produced no frame")
	}
	return &Result{
		Image:                lead.img,
		In:                   lead.res.In,
		BuildSeconds:         lead.res.BuildSeconds,
		RenderSeconds:        lead.res.RenderSeconds,
		CompositeSeconds:     lead.res.CompositeSeconds,
		RankRenderSeconds:    lead.res.RankRenderSeconds,
		RankCompositeSeconds: lead.res.RankCompositeSeconds,
	}, nil
}
