package raytrace_test

// Stats.NodeTests and Stats.TriTests are pure functions of scene, camera
// and kernel, so they can be asserted exactly. This file checks the
// wiring — a frame reports the traversal kernel's own counts; that those
// counts are <= 0.70x the replaced loop's is gated next to the oracle,
// in internal/bvh (TestTraversalWorkGate). External test package: the
// kripke scene comes from scenario, which imports raytrace.

import (
	"math"
	"testing"

	"insitu/internal/device"
	"insitu/internal/render"
	"insitu/internal/render/raytrace"
	"insitu/internal/scenario"
)

func TestStatsCountTraversalWork(t *testing.T) {
	const size = 256
	sd, err := scenario.BuildShard("kripke", 16, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sd.Mesh.Surface(sd.Field, sd.Values)
	if err != nil {
		t.Fatal(err)
	}
	dev := device.New("gate", 2)
	dev.VectorWidth = 8
	r := raytrace.New(dev, m)
	opts := raytrace.Options{
		Width: size, Height: size,
		Camera:   render.OrbitCamera(sd.LocalBounds, 33, 20, 1),
		Workload: raytrace.Workload2,
	}
	_, stats, err := r.Render(opts)
	if err != nil {
		t.Fatal(err)
	}
	nodeTests, triTests := stats.NodeTests, stats.TriTests

	// Workload2 casts primary rays only: the frame's counters are the
	// kernel's, summed over them.
	gen := opts.Camera.Normalized().NewRayGen(size, size)
	var wantNode, wantTri int64
	for py := 0; py < size; py++ {
		for px := 0; px < size; px++ {
			ray := gen.Ray(float64(px), float64(py), 0.5, 0.5)
			_, n, tr := r.BVH.IntersectClosest(ray.Orig, ray.Dir, 1e-9, math.Inf(1))
			wantNode += int64(n)
			wantTri += int64(tr)
		}
	}
	if wantNode == 0 || wantTri == 0 {
		t.Fatal("the primary rays did no traversal work; the check is vacuous")
	}
	if nodeTests != wantNode || triTests != wantTri {
		t.Errorf("Stats counted %d box and %d triangle tests, the kernel ran %d and %d", nodeTests, triTests, wantNode, wantTri)
	}

	// Counts repeat exactly, and the packet path reports its own.
	_, stats, err = r.Render(opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.NodeTests != nodeTests || stats.TriTests != triTests {
		t.Errorf("second frame counted %d/%d, first %d/%d", stats.NodeTests, stats.TriTests, nodeTests, triTests)
	}
	opts.UsePackets = true
	_, stats, err = r.Render(opts)
	if err != nil {
		t.Fatal(err)
	}
	packetNode, packetTri := stats.NodeTests, stats.TriTests
	if packetNode < int64(size*size/dev.VectorWidth) || packetTri < triTests {
		t.Errorf("packet path counted %d box and %d triangle tests; want at least one box test per packet and the scalar path's %d triangle tests", packetNode, packetTri, triTests)
	}
	_, stats, err = r.Render(opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.NodeTests != packetNode || stats.TriTests != packetTri {
		t.Errorf("second packet frame counted %d/%d, first %d/%d", stats.NodeTests, stats.TriTests, packetNode, packetTri)
	}
}
