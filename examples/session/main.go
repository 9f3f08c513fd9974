// Session walks renderd's interactive streaming sessions end to end in
// one process: measure and fit models on this machine, stand up the
// render server, open a persistent session, and orbit the camera the
// way an interactive client would. The session tracks the camera path,
// extrapolates the next poses, and speculatively renders them into the
// frame cache during the client's think time — so after a warm-up lap
// the time-to-photon collapses from a full render to a cache hit. The
// example prints each frame's latency and whether it was served from a
// speculative render, then the session and prefetch counters.
package main

import (
	"fmt"
	"log"
	"time"

	"insitu/internal/advisor"
	"insitu/internal/core"
	"insitu/internal/registry"
	"insitu/internal/serve"
	"insitu/internal/study"
)

func main() {
	// 1. Measure and fit, exactly what `renderd -bootstrap` does.
	var plan []study.Config
	for _, n := range []int{10, 14, 18} {
		for _, img := range []int{64, 128} {
			plan = append(plan, study.Config{
				Arch: "cpu", Renderer: core.RayTrace, Sim: "kripke",
				Tasks: 1, ImageSize: img, N: n, Frames: 2,
			})
		}
	}
	fmt.Printf("measuring %d configurations...\n", len(plan))
	rows, err := study.Run(plan, nil)
	if err != nil {
		log.Fatal(err)
	}
	snap, err := study.FitSnapshot(rows, "session-example")
	if err != nil {
		log.Fatal(err)
	}
	reg := registry.New(0)
	if err := reg.Load(snap); err != nil {
		log.Fatal(err)
	}

	srv := serve.New(advisor.New(reg), serve.Config{
		Arch: "cpu", Workers: 2, PrefetchDepth: 3,
	})
	defer srv.Close()

	// 2. Open a session: admitted once, scene pinned, camera path
	// tracked from here on. Camera fields are the opening pose.
	sess, err := srv.OpenSession(serve.FrameRequest{
		Backend: core.RayTrace, Sim: "kripke", N: 12, Width: 96,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	info := sess.Info()
	fmt.Printf("\nsession %s: %dx%d n=%d, prefetch depth %d\n",
		info.ID, info.Width, info.Height, info.N, info.PrefetchDepth)

	// 3. Orbit. The first lap renders each angle on demand; from the
	// second pose onward the constant-velocity predictor sees the orbit
	// and prefetches ahead into the ~30ms think time, so steady-state
	// frames are sub-millisecond speculative cache hits.
	fmt.Println("\n-- orbiting 15 degrees per frame, 30ms think time --")
	az := 0.0
	for i := 0; i < 16; i++ {
		t0 := time.Now()
		res, err := sess.Frame(az, 0)
		if err != nil {
			log.Fatal(err)
		}
		ttp := time.Since(t0)
		tag := "rendered"
		if res.PrefetchHit {
			tag = "prefetch hit"
		} else if res.CacheHit {
			tag = "cache hit"
		}
		fmt.Printf("frame %2d az %5.1f: %8s  (%s)\n",
			i, az, ttp.Round(time.Microsecond), tag)
		az += 15
		if az >= 360 {
			az -= 360
		}
		time.Sleep(30 * time.Millisecond)
	}

	// 4. The counters behind it: how many frames were answered from a
	// speculatively rendered cache entry, and what the speculation cost.
	st, info := srv.Stats(), sess.Info()
	fmt.Printf("\nsession: %d frames, %d prefetch hits\n", info.Frames, info.PrefetchHits)
	fmt.Printf("server:  %d speculative renders scheduled, %d rendered, %d stale, %d held back (no headroom: %d in-flight cap, %d think-time budget, %d foreground load)\n",
		st.PrefetchScheduled, st.PrefetchRendered, st.PrefetchStale, st.PrefetchNoHeadroom,
		st.PrefetchNoHeadroomInflight, st.PrefetchNoHeadroomBudget, st.PrefetchNoHeadroomScheduler)
	fmt.Printf("scene cache: %d lookups, %d scenes prepared, %d pinned\n",
		st.RunnerCache.Leases, st.RunnerCache.Prepared, st.RunnerCache.Pinned)
}
