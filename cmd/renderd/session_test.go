package main

import (
	"bufio"
	"bytes"
	"context"
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
	"time"

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

// TestRenderdSessionFrameZeroZoom: ?zoom=0 keeps the previous frame's
// zoom, not the opening one, so the same pose again is a cache hit with
// the same bytes.
func TestRenderdSessionFrameZeroZoom(t *testing.T) {
	ts, _ := startRenderd(t, 1000)
	info := openTestSession(t, ts, serve.FrameRequest{
		Backend: core.RayTrace, Sim: "kripke", N: 8, Width: 64,
	})
	get := func(query string) (*http.Response, []byte) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/v1/session/" + info.ID + "/frame?" + query)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", query, resp.StatusCode, body)
		}
		return resp, body
	}
	_, zoomed := get("azimuth=30&zoom=2")
	resp, again := get("azimuth=30&zoom=0")
	if got := resp.Header.Get("X-Renderd-Cache"); got != "hit" || !bytes.Equal(again, zoomed) {
		t.Errorf("zoom=0 after zoom=2: cache %q, same bytes %v; want the zoom-2 frame again", got, bytes.Equal(again, zoomed))
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

// TestRenderdSessionStreamQueries: an fps whose tick is not a positive
// duration and a step that is not finite answer 400 instead of
// panicking the handler or streaming nothing, and steps of any sign and
// size wrap the orbit inside the azimuth bounds for every part.
func TestRenderdSessionStreamQueries(t *testing.T) {
	ts, _ := startRenderd(t, 1000)
	info := openTestSession(t, ts, serve.FrameRequest{
		Backend: core.RayTrace, Sim: "kripke", N: 8, Width: 64,
	})
	for _, c := range []struct {
		query string
		parts int // 0: want a 400
	}{
		{"fps=1e10", 0},
		{"fps=NaN", 0},
		{"fps=1e-300", 0},
		{"fps=0", 0},
		{"step=NaN", 0},
		{"step=Inf", 0},
		{"step=-500000&frames=4&fps=200", 4},
		{"step=1e6&frames=3&fps=200", 3},
		{"step=-15&frames=3&fps=200", 3},
	} {
		resp, err := ts.Client().Get(ts.URL + "/v1/session/" + info.ID + "/stream?" + c.query)
		if err != nil {
			t.Errorf("%s: %v", c.query, err)
			continue
		}
		if c.parts == 0 {
			var e errorBody
			err := json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || err != nil || e.Error == "" {
				t.Errorf("%s: status %d (%v), want a 400 errorBody", c.query, resp.StatusCode, err)
			}
			continue
		}
		_, params, _ := mime.ParseMediaType(resp.Header.Get("Content-Type"))
		mr := multipart.NewReader(resp.Body, params["boundary"])
		parts := 0
		for {
			p, err := mr.NextPart()
			if err != nil {
				if err != io.EOF {
					t.Errorf("%s: part %d: %v", c.query, parts, err)
				}
				break
			}
			if _, err := png.Decode(p); err != nil {
				t.Errorf("%s: part %d not a PNG: %v", c.query, parts, err)
			}
			parts++
		}
		resp.Body.Close()
		if parts != c.parts {
			t.Errorf("%s: %d parts, want %d", c.query, parts, c.parts)
		}
	}
}

// TestRenderdSessionStreamFlushesThroughAccessLog: served through the
// access log, as main serves it, the stream still flushes each part
// before it waits for the next tick. The tick here is hours away and a
// 64² part fits net/http's write buffers, so the part arrives whole only
// if the wrapper kept http.Flusher.
func TestRenderdSessionStreamFlushesThroughAccessLog(t *testing.T) {
	srv, _, err := buildServer(testSnapshotFile(t), false, false, 1000, 0, nil, serve.Config{
		Arch: "serial", Workers: 2, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(serve.LogRequests(t.Logf, newWebServer(srv, nil).handler()))
	t.Cleanup(ts.Close)
	info := openTestSession(t, ts, serve.FrameRequest{
		Backend: core.RayTrace, Sim: "kripke", N: 8, Width: 64,
	})

	// The timeout only bounds a failing run, which would otherwise wait
	// for the tick.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/session/"+info.ID+"/stream?fps=0.0001", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() // ends the stream: the handler sees the disconnect
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	// Read the first part's header block, then the PNG up to its IEND
	// chunk; the part's closing boundary is written only at the next tick.
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("part header: %v", err)
		}
		if line == "\r\n" {
			break
		}
	}
	iend := []byte("IEND\xaeB`\x82")
	var part []byte
	for !bytes.HasSuffix(part, iend) {
		b, err := br.ReadByte()
		if err != nil {
			t.Fatalf("after %d bytes of the first part: %v", len(part), err)
		}
		part = append(part, b)
	}
	img, err := png.Decode(bytes.NewReader(part))
	if err != nil {
		t.Fatalf("first part is not a PNG: %v", err)
	}
	if w := img.Bounds().Dx(); w != 64 {
		t.Errorf("first part is %d wide, want 64", w)
	}
}
