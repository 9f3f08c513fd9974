// Multinode demonstrates the distributed renderd topology in one
// process: a router rank fronts a fleet of worker ranks, shards each
// frame's data across them (weak scaling, one N^3 block per rank),
// renders the partials in parallel, and composites sort-last with
// binary swap — the pipeline the paper's multi-node model covers, and
// exactly what `renderd -cluster N` serves over HTTP.
//
// The walkthrough:
//
//  1. cluster.NewWithOptions boots the fleet: worker rank loops over an
//     in-process MPI-like world, the router on rank 0.
//  2. Each Render call places the job's shards on distinct ranks by
//     rendezvous hashing and dispatches them; the shard group renders
//     and composites collectively and the router gets one finished
//     frame.
//  3. The fleet's stats count the frames and the bytes that crossed the
//     rank transport: jobs out, image data back.
//
// The fleet renders and never reads the fitted models. In renderd the
// models stay with the router's admission, which prices a frame
// (max(T_local) + Tc) before it dispatches; this example dispatches
// directly.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"insitu/internal/cluster"
)

func main() {
	workers := flag.Int("workers", 4, "worker ranks in the fleet")
	shards := flag.Int("shards", 3, "ranks each frame is sharded across")
	size := flag.Int("size", 400, "image size")
	n := flag.Int("n", 16, "grid points per axis per shard")
	backend := flag.String("backend", "volume", "raytracer, rasterizer, volume, or volume-unstructured")
	simName := flag.String("sim", "kripke", "proxy simulation (cloverleaf, kripke, lulesh)")
	out := flag.String("out", "multinode.png", "output image path")
	flag.Parse()

	// 1. Boot the fleet: *workers* serial rank loops plus the router.
	fleet, err := cluster.NewWithOptions(*workers, cluster.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer fleet.Close()

	// 2. Render one sharded frame. The router places the shards,
	// dispatches, and returns the binary-swap composite of the partial
	// renders.
	res, err := fleet.Render(context.Background(), cluster.Job{
		Backend: *backend, Sim: *simName, Arch: "serial",
		N: *n, Width: *size, Height: *size,
		Shards: *shards, Azimuth: 30, Zoom: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d of %d ranks rendered %q/%s and composited %dx%d\n",
		*shards, *workers, *backend, *simName, res.Image.W, res.Image.H)
	fmt.Printf("  max rank render: %.4fs  composite (Tc): %.4fs  per rank: %v\n",
		res.RenderSeconds, res.CompositeSeconds, fmtSeconds(res.RankRenderSeconds))

	// 3. What crossed the transport.
	st := fleet.Stats()
	fmt.Printf("  fleet: %d frames, %d bytes over the wire\n", st.FramesDispatched, st.BytesSent)

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := res.Image.EncodePNG(f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  wrote %s\n", *out)
}

func fmtSeconds(secs []float64) []string {
	out := make([]string, len(secs))
	for i, s := range secs {
		out[i] = fmt.Sprintf("%.4fs", s)
	}
	return out
}
