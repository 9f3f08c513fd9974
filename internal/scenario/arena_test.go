package scenario

import (
	"fmt"
	"testing"

	"insitu/internal/conduit"
	"insitu/internal/core"
	"insitu/internal/device"
	"insitu/internal/dpp"
	"insitu/internal/render"
	"insitu/internal/sim"
)

// TestWorkerArenaMatchesFreshRunner is the oracle of arena reuse: one
// long-lived arena per backend renders an interleaved sequence of scenes
// and frames — every compatible proxy at two block sizes, image sizes
// that shrink and then grow again, two cameras and, for the ray tracer,
// every workload — and every frame matches, bit for bit, the frame a
// fresh Backend.Prepare runner draws of the same configuration: pixels,
// depths, model inputs and build time. So nothing a frame leaves in an
// arena leaks into the next one, whatever scene or frame that is. It
// runs on the host and the scalar kernel sets.
func TestWorkerArenaMatchesFreshRunner(t *testing.T) {
	if dpp.RaceEnabled {
		// One goroutine drives every arena here, so the race detector has
		// nothing to check that TestSharedSceneDrawsTheSameFrames does not,
		// and it slows the ~800 frames from 3 s to ~50 s.
		t.Skip("a sequential bitwise oracle; the race detector adds only time")
	}
	type block struct {
		proxy string
		n     int
		pm    *ParsedMesh
		field string
		vals  []float64
	}
	var blocks []block
	for _, n := range []int{8, 12} {
		for _, proxy := range sim.Names() {
			sm, err := sim.New(proxy, n, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			sm.Step()
			node := conduit.NewNode()
			sm.Publish(node)
			pm, err := ParseMesh(node)
			if err != nil {
				t.Fatal(err)
			}
			vals, err := pm.FieldValues(sm.PrimaryField())
			if err != nil {
				t.Fatal(err)
			}
			blocks = append(blocks, block{proxy, n, pm, sm.PrimaryField(), vals})
		}
	}
	sizes := [][2]int{{96, 72}, {1, 1}, {64, 64}}
	for _, profile := range []string{"cpu", "cpu-scalar"} {
		t.Run(profile, func(t *testing.T) {
			dev, err := device.Profile(profile)
			if err != nil {
				t.Fatal(err)
			}
			defer dev.Close()
			arenas := map[Backend]Arena{}
			frames := 0
			for _, size := range sizes {
				for cam := 0; cam < 2; cam++ {
					for wl := 1; wl <= 3; wl++ {
						for _, blk := range blocks {
							for _, name := range Names() {
								b, _ := Lookup(name)
								if b.NeedsStructured() && !sim.Structured(blk.proxy) || name != core.RayTrace && wl > 1 {
									continue
								}
								bounds := blk.pm.LocalBounds()
								camera := render.OrbitCamera(bounds, 30, 20, 1)
								if cam == 1 {
									camera = render.OrbitCamera(bounds, 75, 10, 1.2)
								}
								sc := NewScene(dev, blk.pm, blk.field, blk.vals, camera, size[0], size[1])
								if name == core.RayTrace {
									sc.RTWorkload = wl
								}
								runner, err := b.Prepare(sc)
								if err != nil {
									t.Fatal(err)
								}
								fresh := runner.(*sceneRunner)
								ps := fresh.scene
								want := drawFrame(t, fresh.arena, ps, fresh.frame)
								if arenas[b] == nil {
									arenas[b] = b.NewArena(dev)
								}
								f := Frame{Width: size[0], Height: size[1], Camera: camera, RTWorkload: sc.RTWorkload}
								got := drawFrame(t, arenas[b], ps, f)
								what := fmt.Sprintf("%s %s n=%d %dx%d camera %d workload %d", name, blk.proxy, blk.n, size[0], size[1], cam, sc.RTWorkload)
								if msg := got.diff(want); msg != "" {
									t.Fatalf("%s: the reused arena's frame differs from a fresh runner's: %s", what, msg)
								}
								if ps.BuildSeconds != fresh.BuildSeconds() {
									t.Fatalf("%s: build %v s, fresh runner %v s", what, ps.BuildSeconds, fresh.BuildSeconds())
								}
								frames++
							}
						}
					}
				}
			}
			if len(arenas) != len(Names()) || frames == 0 {
				t.Fatalf("%d arenas drew %d frames; want one arena per backend", len(arenas), frames)
			}
		})
	}
}
