// Renderd walks the render-serving subsystem end to end in one
// process: measure a small study on this machine, fit and load the
// models, stand up the model-gated render server, and then drive it the
// way a client would — a frame within budget, the same frame again from
// the cache, a tight deadline that is admitted only after degradation,
// an impossible deadline that is rejected with the predicted time, and
// finally enough served frames that the calibration loop refits the
// models and bumps the registry generation.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"insitu/internal/advisor"
	"insitu/internal/core"
	"insitu/internal/registry"
	"insitu/internal/serve"
	"insitu/internal/study"
)

func main() {
	// 1. Measure and fit: a small single-architecture corpus, exactly
	// what `renderd -bootstrap` does with a bigger plan.
	var plan []study.Config
	for _, n := range []int{10, 14, 18} {
		for _, img := range []int{64, 128} {
			for _, r := range []core.Renderer{core.RayTrace, core.Volume} {
				plan = append(plan, study.Config{
					Arch: "cpu", Renderer: r, Sim: "kripke",
					Tasks: 1, ImageSize: img, N: n, Frames: 2,
				})
			}
		}
	}
	fmt.Printf("measuring %d configurations...\n", len(plan))
	rows, err := study.Run(plan, nil)
	if err != nil {
		log.Fatal(err)
	}
	snap, err := study.FitSnapshot(rows, "renderd-example")
	if err != nil {
		log.Fatal(err)
	}
	reg := registry.New(0)
	if err := reg.Load(snap); err != nil {
		log.Fatal(err)
	}

	// 2. Serve: advisor engine + calibrator + render-serving subsystem,
	// behind the same HTTP handler cmd/renderd exposes.
	engine := advisor.New(reg)
	engine.SetObserver(serve.NewCalibrator(reg, "", "renderd-example-frames", 4, log.Printf))
	srv := serve.New(engine, serve.Config{Arch: "cpu", Workers: 2})
	defer srv.Close()

	// The serving subsystem is an ordinary library; cmd/renderd's HTTP
	// layer is a thin shell over srv.Render. Here we call the library
	// directly and show one request over HTTP for the wire format.
	fmt.Println("\n-- a frame within budget --")
	res, err := srv.Render(serve.FrameRequest{
		Backend: core.RayTrace, Sim: "kripke", N: 16, Width: 256, DeadlineMillis: 2000,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("served %dx%d n=%d: predicted %.1fms, measured %.1fms, %d PNG bytes\n",
		res.Width, res.Height, res.N, res.PredictedSeconds*1e3, res.RenderSeconds*1e3, len(res.PNG))
	if err := os.WriteFile("renderd-frame.png", res.PNG, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote renderd-frame.png")

	fmt.Println("\n-- the same frame again: cache hit, identical bytes --")
	res2, err := srv.Render(serve.FrameRequest{
		Backend: core.RayTrace, Sim: "kripke", N: 16, Width: 256, DeadlineMillis: 2000,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cache hit: %v, bytes identical: %v\n",
		res2.CacheHit, len(res2.PNG) == len(res.PNG))

	// 3. Deadline gating: a budget below the full-quality prediction is
	// met by degrading, far below every quality it is refused with the
	// predicted cost — the model saying "no" before any work happens.
	full, err := engine.Predict(advisor.PredictRequest{
		Arch: "cpu", Renderer: string(core.RayTrace), N: 24, Tasks: 1, Width: 1024, Renderings: 100,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n-- tight deadline (half the %.0fms full-quality prediction) --\n", full.PerImageSeconds*1e3)
	res3, err := srv.Render(serve.FrameRequest{
		Backend: core.RayTrace, Sim: "kripke", N: 24, Width: 1024,
		DeadlineMillis: full.PerImageSeconds / 2 * 1e3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("admitted after %d degrade steps: served %dx%d n=%d (predicted %.1fms)\n",
		res3.DegradeSteps, res3.Width, res3.Height, res3.N, res3.PredictedSeconds*1e3)

	fmt.Println("\n-- impossible deadline: rejected with the prediction --")
	_, err = srv.Render(serve.FrameRequest{
		Backend: core.RayTrace, Sim: "kripke", N: 24, Width: 1024, DeadlineMillis: 0.001,
	})
	fmt.Printf("rejected: %v\n", err)

	// 4. The closed loop: served frames are measurements; after enough
	// of them the calibrator refits and republishes, visible as a
	// generation bump — the models renderd gates with are now fitted to
	// renderd's own traffic.
	gen0 := reg.Generation()
	fmt.Printf("\n-- calibration: generation %d, serving frames... --\n", gen0)
	for i := 0; i < 10; i++ {
		_, err := srv.Render(serve.FrameRequest{
			Backend: core.Volume, Sim: "kripke",
			N: 10 + 2*(i%3), Width: 96, Azimuth: float64(20 * i),
		})
		if err != nil {
			log.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for reg.Generation() == gen0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	fmt.Printf("generation %d -> %d (source %q)\n",
		gen0, reg.Generation(), reg.Snapshot().Source)
	st := srv.Stats()
	fmt.Printf("metrics: %d rendered, %d cache hits, %d observations fed, %d refits\n",
		st.FramesRendered, st.CacheHits, st.ObservationsQueued, st.Refits)

	// 5. One request over the wire, exactly as cmd/renderd serves it.
	overHTTP(srv)
}

// overHTTP shows the wire format: GET /v1/frame with query parameters,
// quality and timing in X-Renderd-* headers, PNG in the body.
func overHTTP(srv *serve.Server) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/frame", func(w http.ResponseWriter, r *http.Request) {
		res, err := srv.Render(serve.FrameRequest{
			Backend: core.Volume, Sim: "kripke", N: 12, Width: 96,
		})
		if err != nil {
			b, _ := json.Marshal(map[string]string{"error": err.Error()})
			w.WriteHeader(http.StatusBadRequest)
			w.Write(b)
			return
		}
		w.Header().Set("Content-Type", "image/png")
		w.Header().Set("X-Renderd-Cache", fmt.Sprint(res.CacheHit))
		w.Write(res.PNG)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/frame")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	n, _ := io.Copy(io.Discard, resp.Body)
	fmt.Printf("\nHTTP GET /v1/frame: %s, %s, %d bytes\n",
		resp.Status, resp.Header.Get("Content-Type"), n)
}
