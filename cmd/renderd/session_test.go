package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"image/png"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"insitu/internal/core"
	"insitu/internal/serve"
)

// openTestSession opens a session over HTTP and returns its info.
func openTestSession(t *testing.T, ts *httptest.Server, req serve.FrameRequest) serve.SessionInfo {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/session", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("open session: status %d: %s", resp.StatusCode, b)
	}
	var info serve.SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

// TestRenderdSessionLifecycle: open a session over HTTP, orbit it
// frame by frame (each a decodable PNG with cache/prefetch headers),
// watch the prefetch counters surface in info and /v1/metrics, and
// close it.
func TestRenderdSessionLifecycle(t *testing.T) {
	ts, _ := startRenderd(t, 1000)
	info := openTestSession(t, ts, serve.FrameRequest{
		Backend: core.RayTrace, Sim: "kripke", N: 8, Width: 64,
	})
	if info.ID == "" || info.Width != 64 || info.N != 8 {
		t.Fatalf("session info %+v", info)
	}

	prefetchHits := 0
	for i := 1; i <= 8; i++ {
		resp, err := ts.Client().Get(fmt.Sprintf("%s/v1/session/%s/frame?azimuth=%d", ts.URL, info.ID, 15*i))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("frame %d: status %d: %s", i, resp.StatusCode, body)
		}
		if _, err := png.Decode(bytes.NewReader(body)); err != nil {
			t.Fatalf("frame %d not a PNG: %v", i, err)
		}
		switch resp.Header.Get("X-Renderd-Prefetch") {
		case "hit":
			prefetchHits++
		case "miss":
		default:
			t.Fatalf("frame %d: bad X-Renderd-Prefetch %q", i, resp.Header.Get("X-Renderd-Prefetch"))
		}
	}

	var metrics struct {
		Serve serve.Stats `json:"serve"`
	}
	if code := getJSON(t, ts, "/v1/metrics", &metrics); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if metrics.Serve.SessionsOpen != 1 || metrics.Serve.SessionFrames != 8 {
		t.Errorf("metrics sessions: %+v", metrics.Serve)
	}
	if got := metrics.Serve.PrefetchHits; got != uint64(prefetchHits) {
		t.Errorf("metrics prefetch hits %d, headers said %d", got, prefetchHits)
	}
	if metrics.Serve.RunnerCache.Pinned != 1 {
		t.Errorf("runner cache pins: %+v", metrics.Serve.RunnerCache)
	}

	var gotInfo serve.SessionInfo
	if code := getJSON(t, ts, "/v1/session/"+info.ID, &gotInfo); code != http.StatusOK {
		t.Fatalf("session info status %d", code)
	}
	if gotInfo.Frames != 8 || gotInfo.PrefetchHits != uint64(prefetchHits) {
		t.Errorf("session info counters %+v", gotInfo)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/"+info.ID, nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("close session: status %d", resp.StatusCode)
	}
	// Closed sessions are gone: frames answer 404.
	resp, err = ts.Client().Get(ts.URL + "/v1/session/" + info.ID + "/frame?azimuth=10")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("frame on closed session: status %d, want 404", resp.StatusCode)
	}
}

// TestRenderdSessionStream: the stream endpoint pushes
// multipart/x-mixed-replace PNG parts and terminates after the
// requested frame count.
func TestRenderdSessionStream(t *testing.T) {
	ts, _ := startRenderd(t, 1000)
	info := openTestSession(t, ts, serve.FrameRequest{
		Backend: core.RayTrace, Sim: "kripke", N: 8, Width: 64,
	})
	resp, err := ts.Client().Get(ts.URL + "/v1/session/" + info.ID + "/stream?frames=4&fps=200")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	mt, params, err := mime.ParseMediaType(resp.Header.Get("Content-Type"))
	if err != nil || mt != "multipart/x-mixed-replace" {
		t.Fatalf("stream content type %q (%v)", resp.Header.Get("Content-Type"), err)
	}
	mr := multipart.NewReader(resp.Body, params["boundary"])
	parts := 0
	for {
		p, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("part %d: %v", parts, err)
		}
		data, err := io.ReadAll(p)
		if err != nil {
			t.Fatalf("part %d read: %v", parts, err)
		}
		if _, err := png.Decode(bytes.NewReader(data)); err != nil {
			t.Fatalf("part %d not a PNG: %v", parts, err)
		}
		parts++
	}
	if parts != 4 {
		t.Fatalf("stream delivered %d parts, want 4", parts)
	}
}

// TestRenderdSessionDrain: DrainSessions (the graceful-shutdown hook)
// ends live sessions — their next frame answers 410 Gone — and new
// opens are refused, while stateless frame serving still works until
// Close.
func TestRenderdSessionDrain(t *testing.T) {
	ts, srv := startRenderd(t, 1000)
	info := openTestSession(t, ts, serve.FrameRequest{
		Backend: core.RayTrace, Sim: "kripke", N: 8, Width: 64,
	})
	srv.DrainSessions()

	resp, err := ts.Client().Get(ts.URL + "/v1/session/" + info.ID + "/frame?azimuth=15")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	// The drained session is unregistered (404) — it must not answer
	// frames as if alive.
	if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusGone {
		t.Fatalf("frame after drain: status %d, want 404 or 410", resp.StatusCode)
	}

	body, _ := json.Marshal(serve.FrameRequest{Backend: core.RayTrace, Sim: "kripke", N: 8, Width: 64})
	post, err := ts.Client().Post(ts.URL+"/v1/session", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, post.Body)
	post.Body.Close()
	if post.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open after drain: status %d, want 503", post.StatusCode)
	}

	// One-shot frames are unaffected by the session drain.
	frame, pngBytes := getFrame(t, ts, "backend=raytracer&sim=kripke&n=8&size=64&azimuth=7")
	if frame.StatusCode != http.StatusOK {
		t.Fatalf("one-shot frame after drain: status %d: %s", frame.StatusCode, pngBytes)
	}
}

// TestRenderdConcurrentSessions: two sessions orbit side by side over
// HTTP for a fixed frame count each, sharing the server's scheduler,
// runner cache and frame cache. Every frame answers 200 with a
// decodable PNG, and the session counters account for all of them.
func TestRenderdConcurrentSessions(t *testing.T) {
	const sessions, frames = 2, 12
	ts, _ := startRenderd(t, 1000)
	var ids []string
	for c := 0; c < sessions; c++ {
		info := openTestSession(t, ts, serve.FrameRequest{
			Backend: core.RayTrace, Sim: "kripke", N: 8, Width: 64, Azimuth: float64(90 * c),
		})
		ids = append(ids, info.ID)
	}

	var wg sync.WaitGroup
	for c, id := range ids {
		wg.Add(1)
		go func(c int, id string) {
			defer wg.Done()
			for i := 1; i <= frames; i++ {
				u := fmt.Sprintf("%s/v1/session/%s/frame?azimuth=%d", ts.URL, id, 90*c+15*i)
				resp, err := ts.Client().Get(u)
				if err != nil {
					t.Errorf("session %d frame %d: %v", c, i, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("session %d frame %d: status %d err %v: %s", c, i, resp.StatusCode, err, body)
					return
				}
				if _, err := png.Decode(bytes.NewReader(body)); err != nil {
					t.Errorf("session %d frame %d not a PNG: %v", c, i, err)
					return
				}
			}
		}(c, id)
	}
	wg.Wait()

	var metrics struct {
		Serve serve.Stats `json:"serve"`
	}
	if code := getJSON(t, ts, "/v1/metrics", &metrics); code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	if metrics.Serve.SessionsOpen != sessions || metrics.Serve.SessionFrames != sessions*frames {
		t.Errorf("metrics sessions open %d frames %d, want %d and %d",
			metrics.Serve.SessionsOpen, metrics.Serve.SessionFrames, sessions, sessions*frames)
	}
}
