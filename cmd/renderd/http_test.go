package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"insitu/internal/advisor"
	"insitu/internal/core"
	"insitu/internal/registry"
	"insitu/internal/serve"
)

// countingListener hands out connections that count their Write calls —
// the socket writes net/http makes — and records them in accept order.
type countingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*countingConn
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: c, closed: make(chan struct{})}
	l.mu.Lock()
	l.conns = append(l.conns, cc)
	l.mu.Unlock()
	return cc, nil
}

func (l *countingListener) conn(i int) *countingConn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conns[i]
}

type countingConn struct {
	net.Conn
	writes atomic.Int64
	once   sync.Once
	closed chan struct{}
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

func (c *countingConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// cachedFrameWrites is the number of socket writes a cached 256² frame
// answer costs under go 1.24 (go.mod): the headers with the first part
// of the PNG, then the rest. A chunked answer (no Content-Length) takes
// a third for its terminator.
const cachedFrameWrites = 2

// TestCachedFrameAnswerWrites pins a cache-hit /v1/frame answer, served
// through the access log as main serves it, at cachedFrameWrites socket
// writes on its connection.
func TestCachedFrameAnswerWrites(t *testing.T) {
	srv, _, err := buildServer(testSnapshotFile(t), false, false, 1000, 0, nil, serve.Config{
		Arch: "serial", Workers: 2, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	req, err := frameQuery(url.Values{"backend": {"raytracer"}, "sim": {"kripke"}, "n": {"8"}, "size": {"256"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Render(req); err != nil { // fill the frame cache
		t.Fatal(err)
	}

	ts := httptest.NewUnstartedServer(serve.LogRequests(t.Logf, newWebServer(srv, nil).handler()))
	l := &countingListener{Listener: ts.Listener}
	ts.Listener = l
	ts.Start()
	t.Cleanup(ts.Close)

	// One connection for the one request: the server closes it after the
	// answer, so its count is final once it is closed.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := client.Get(ts.URL + "/v1/frame?backend=raytracer&sim=kripke&n=8&size=256")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Renderd-Cache") != "hit" {
		t.Fatalf("status %d, cache %q: want a 200 hit", resp.StatusCode, resp.Header.Get("X-Renderd-Cache"))
	}
	if len(body) < 4096 {
		t.Fatalf("a %d-byte PNG fits net/http's write buffer with its headers; the pin needs a larger frame", len(body))
	}
	c := l.conn(0)
	<-c.closed
	if got := c.writes.Load(); got != cachedFrameWrites {
		t.Errorf("cached frame answer took %d socket writes, want %d", got, cachedFrameWrites)
	}
}

// xRenderdHeaders is the wire form of h's X-Renderd-* headers, sorted by
// key as net/http writes them.
func xRenderdHeaders(h http.Header) string {
	var b strings.Builder
	keys := make([]string, 0, len(h))
	for k := range h {
		if strings.HasPrefix(k, "X-Renderd-") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, v := range h[k] {
			b.WriteString(k + ": " + v + "\r\n")
		}
	}
	return b.String()
}

// TestFrameHeadersGolden: writePNG writes the X-Renderd-* headers the
// two handlers wrote before they shared it, byte for byte. The golden
// strings were produced by the earlier per-handler header code on the
// same results.
func TestFrameHeadersGolden(t *testing.T) {
	png := []byte("\x89PNG not really")
	for _, c := range []struct {
		name    string
		res     serve.FrameResult
		session bool
		want    string
	}{
		{"sharded frame", serve.FrameResult{
			PNG: png, Width: 128, Height: 96, N: 12, RTWorkload: 3,
			PredictedSeconds: 0.0123456789, RenderSeconds: 1.5e-7, Shards: 2,
			CompositeSeconds: 0.00042, PredictedCompositeSeconds: 3.14159265e-5,
			RankRenderSeconds: []float64{0.01, 1.0 / 3}, Degraded: true,
			QueueSeconds: 0.25, DeadlineMiss: true, Retries: 1, FleetDegraded: true,
		}, false, "X-Renderd-Cache: miss\r\nX-Renderd-Composite-Seconds: 0.00042\r\nX-Renderd-Deadline-Miss: 1\r\nX-Renderd-Degraded: true\r\nX-Renderd-Fleet-Degraded: true\r\nX-Renderd-Predicted-Composite-Seconds: 3.14159e-05\r\nX-Renderd-Predicted-Seconds: 0.0123457\r\nX-Renderd-Quality: 128x96 n=12 wl=3\r\nX-Renderd-Queue-Seconds: 0.25\r\nX-Renderd-Rank-Render-Seconds: 0.01,0.333333\r\nX-Renderd-Render-Seconds: 1.5e-07\r\nX-Renderd-Retries: 1\r\nX-Renderd-Shards: 2\r\n"},
		{"local cache hit", serve.FrameResult{
			PNG: png, Width: 256, Height: 256, N: 16, RTWorkload: 1,
			PredictedSeconds: 0.02, RenderSeconds: 0.0187654321, Shards: 1, CacheHit: true,
		}, false, "X-Renderd-Cache: hit\r\nX-Renderd-Degraded: false\r\nX-Renderd-Fleet-Degraded: false\r\nX-Renderd-Predicted-Seconds: 0.02\r\nX-Renderd-Quality: 256x256 n=16 wl=1\r\nX-Renderd-Queue-Seconds: 0\r\nX-Renderd-Render-Seconds: 0.0187654\r\nX-Renderd-Retries: 0\r\nX-Renderd-Shards: 1\r\n"},
		{"session prefetch hit", serve.FrameResult{
			PNG: png, Width: 64, Height: 64, N: 8, RTWorkload: 2,
			CacheHit: true, PrefetchHit: true, QueueSeconds: 1e-9, DeadlineMiss: true,
		}, true, "X-Renderd-Cache: hit\r\nX-Renderd-Deadline-Miss: 1\r\nX-Renderd-Prefetch: hit\r\nX-Renderd-Quality: 64x64 n=8 wl=2\r\nX-Renderd-Queue-Seconds: 1e-09\r\n"},
	} {
		rec := httptest.NewRecorder()
		writePNG(rec, &c.res, c.session)
		if got := xRenderdHeaders(rec.Header()); got != c.want {
			t.Errorf("%s headers:\n%q\nwant\n%q", c.name, got, c.want)
		}
		h := rec.Header()
		if h.Get("Content-Type") != "image/png" || h.Get("Content-Length") != "15" || !bytes.Equal(rec.Body.Bytes(), png) {
			t.Errorf("%s: Content-Type %q, Content-Length %q, body %q", c.name, h.Get("Content-Type"), h.Get("Content-Length"), rec.Body.Bytes())
		}
	}
}

// TestServedFrameHeaderNames: a served /v1/frame and a session frame
// carry the X-Renderd-* header names they carried before the handlers
// shared writePNG, and a Content-Length instead of chunked framing.
func TestServedFrameHeaderNames(t *testing.T) {
	ts, _ := startRenderd(t, 1000)
	names := func(h http.Header) string {
		var keys []string
		for k := range h {
			if strings.HasPrefix(k, "X-Renderd-") {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		return strings.Join(keys, " ")
	}
	framed := func(what string, resp *http.Response, body []byte) {
		t.Helper()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", what, resp.StatusCode, body)
		}
		if len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(len(body)) {
			t.Errorf("%s: Transfer-Encoding %v, Content-Length %d for a %d-byte body", what, resp.TransferEncoding, resp.ContentLength, len(body))
		}
	}

	resp, body := getFrame(t, ts, "backend=raytracer&sim=kripke&n=8&size=64&azimuth=30")
	framed("frame", resp, body)
	const frameNames = "X-Renderd-Cache X-Renderd-Degraded X-Renderd-Fleet-Degraded X-Renderd-Predicted-Seconds X-Renderd-Quality X-Renderd-Queue-Seconds X-Renderd-Render-Seconds X-Renderd-Retries X-Renderd-Shards"
	if got := names(resp.Header); got != frameNames {
		t.Errorf("frame header names\n%s\nwant\n%s", got, frameNames)
	}

	info := openTestSession(t, ts, serve.FrameRequest{Backend: core.RayTrace, Sim: "kripke", N: 8, Width: 64})
	resp, err := ts.Client().Get(ts.URL + "/v1/session/" + info.ID + "/frame?azimuth=15")
	if err != nil {
		t.Fatal(err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	framed("session frame", resp, body)
	const sessionNames = "X-Renderd-Cache X-Renderd-Prefetch X-Renderd-Quality X-Renderd-Queue-Seconds"
	if got := names(resp.Header); got != sessionNames {
		t.Errorf("session frame header names\n%s\nwant\n%s", got, sessionNames)
	}
}

// TestJSONAnswersCarryContentLength: a JSON answer over net/http's 2 KB
// chunking threshold is sent with its length, not chunked.
func TestJSONAnswersCarryContentLength(t *testing.T) {
	fit := registry.FitDoc{Coef: []float64{1e-7, 5e-8, 1e-4}, R2: 0.99, N: 16, P: 3}
	snap := &registry.Snapshot{
		Version: registry.SnapshotVersion, Source: "renderd-test", CreatedUnix: 1,
		Mapping: registry.MappingDoc{FillFraction: 0.55, SPRBase: 373},
	}
	for _, arch := range []string{"serial", "cpu", "gpu", "knl"} {
		for _, r := range []core.Renderer{core.RayTrace, core.Raster, core.Volume} {
			snap.Models = append(snap.Models, registry.ModelDoc{Arch: arch, Renderer: string(r), Fit: fit})
		}
	}
	path := filepath.Join(t.TempDir(), "models.json")
	if err := snap.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	reg := registry.New(0)
	if err := reg.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	ts, _ := advisorServer(t, advisor.New(reg), serve.Config{ObserveQueue: -1})

	resp, err := ts.Client().Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(body) <= 2048 {
		t.Fatalf("/v1/models: status %d, %d bytes: want a 200 over 2 KB", resp.StatusCode, len(body))
	}
	if len(resp.TransferEncoding) != 0 || resp.ContentLength != int64(len(body)) {
		t.Errorf("/v1/models: Transfer-Encoding %v, Content-Length %d for a %d-byte body", resp.TransferEncoding, resp.ContentLength, len(body))
	}
}

// benchQueries are hand-written queries in the shapes the benchmark's
// workloads send (orbit_miss, replay_hit, deadline_mix, shard_pair and
// session_orbit's session frames), plus malformed ones.
var benchQueries = []string{
	"azimuth=123.456&backend=raytracer&n=16&sim=kripke&size=256&zoom=1.100",
	"azimuth=2.812&backend=raytracer&n=16&sim=kripke&size=256&zoom=1.000",
	"azimuth=91.000&backend=volume&deadline_ms=20.5&n=24&sim=kripke&size=256&zoom=1.000",
	"azimuth=45.125&backend=raytracer&deadline_ms=5.4&n=24&sim=lulesh&size=256&zoom=1.000",
	"azimuth=300.000&backend=volume&n=16&shards=2&sim=kripke&size=128&zoom=1.000",
	"azimuth=7.003&zoom=1.000",
	"backend=raytracer&n=eight&size=64",
	"n=8&size=64&deadline_ms=1e13",
	"azimuth=NaN&zoom=-Inf&width=99999999999999999999",
	"n=8&n=9&size=%zz",
}

// streamQueries are the stream queries that used to panic the handler,
// stream nothing or walk out of the azimuth bounds, and some valid ones.
var streamQueries = []string{
	"fps=1e10", "fps=NaN", "fps=1e-300", "fps=0", "fps=-1", "fps=Inf",
	"step=NaN", "step=-Inf", "step=-15", "step=720", "step=1e6&frames=3",
	"frames=4&fps=200", "step=7.003&fps=25", "frames=x",
}

// rejectsWith400 serves raw through handler and checks that the answer
// is a 400 carrying a JSON errorBody. The handlers validate the query
// before they touch the serving stack, so a bare webServer serves it.
func rejectsWith400(t *testing.T, handler func(*webServer, http.ResponseWriter, *http.Request), raw string) {
	t.Helper()
	rec := httptest.NewRecorder()
	handler(&webServer{}, rec, &http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/", RawQuery: raw}})
	var e errorBody
	if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error == "" {
		t.Fatalf("rejected query %q answered %d: %s", raw, rec.Code, rec.Body.Bytes())
	}
}

func FuzzFrameQuery(f *testing.F) {
	for _, q := range append(benchQueries, streamQueries...) {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		if _, err := frameQuery((&url.URL{RawQuery: raw}).Query()); err != nil {
			rejectsWith400(t, (*webServer).handleFrameGet, raw)
		}
	})
}

func FuzzStreamQuery(f *testing.F) {
	for _, q := range append(streamQueries, benchQueries...) {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		step, interval, _, err := streamQuery((&url.URL{RawQuery: raw}).Query())
		if err != nil {
			rejectsWith400(t, (*webServer).handleSessionStream, raw)
			return
		}
		if interval <= 0 {
			t.Fatalf("accepted stream query %q has tick interval %v", raw, interval)
		}
		for _, from := range []float64{0, 359.999, -1e6, 1e6} {
			if a := orbitStep(from, step); !(a >= 0 && a < 360) {
				t.Fatalf("accepted stream query %q steps azimuth %g to %g, outside [0, 360)", raw, from, a)
			}
		}
	})
}
