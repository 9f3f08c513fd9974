package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one completed (or failed) request as the client saw it.
type sample struct {
	req    request
	lat    time.Duration // due (open loop) or send → last body byte
	lag    time.Duration // send − due: how late the open-loop generator ran
	done   time.Duration // completion, offset from the window start
	status int
	err    error

	cacheHit    bool
	prefetchHit bool
	degraded    bool
	servedW     int
	servedH     int
	// body is kept for post-window verification unless it was already
	// compared byte-for-byte against an earlier answer to the same key.
	body     []byte
	repeated bool
}

// client is one keep-alive connection to the server.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	return &client{
		base: base,
		http: &http.Client{
			Timeout: requestTimeout,
			Transport: &http.Transport{
				MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1,
				DisableCompression: true,
			},
		},
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request and reads the whole answer. from is when latency
// starts counting; tokens maps session index → session id.
func (c *client) do(ctx context.Context, r request, from time.Time, tokens []string) sample {
	s := sample{req: r}
	url := c.base + "/v1/frame?" + r.query()
	if r.Session >= 0 {
		url = fmt.Sprintf("%s/v1/session/%s/frame?azimuth=%s&zoom=%s", c.base, tokens[r.Session], milli(r.AzMilli), milli(r.ZoomMil))
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		s.err = err
		return s
	}
	resp, err := c.http.Do(hreq)
	if err != nil {
		s.err = err
		return s
	}
	defer resp.Body.Close()
	s.body, s.err = io.ReadAll(resp.Body)
	s.lat = time.Since(from)
	s.status = resp.StatusCode
	h := resp.Header
	s.cacheHit = h.Get("X-Renderd-Cache") == "hit"
	s.prefetchHit = h.Get("X-Renderd-Prefetch") == "hit"
	s.degraded = h.Get("X-Renderd-Degraded") == "true"
	// "WxH n=N wl=K"; a parse failure leaves 0x0, which verify rejects.
	_, _ = fmt.Sscanf(h.Get("X-Renderd-Quality"), "%dx%d", &s.servedW, &s.servedH)
	return s
}

// openSession opens one streaming session at the request's pose.
func (c *client) openSession(ctx context.Context, r request) (string, error) {
	body, err := json.Marshal(map[string]any{
		"backend": r.Backend, "sim": r.Sim, "n": r.N, "width": r.Size,
		"azimuth": float64(r.AzMilli) / 1e3, "zoom": float64(r.ZoomMil) / 1e3,
	})
	if err != nil {
		return "", err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/session", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	resp, err := c.http.Do(hreq)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var info struct {
		Session string `json:"session"`
	}
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body) // best-effort detail for the error text
		return "", fmt.Errorf("open session: status %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return "", err
	}
	return info.Session, nil
}

// recorder collects samples from all clients and spots repeated
// answers: the first body for a key is kept, later ones are compared to
// it in place (a memcmp) and dropped, so a hit-heavy run neither keeps
// 100k bodies nor spends the window decoding PNGs beside the server.
type recorder struct {
	mu        sync.Mutex
	samples   []sample
	first     map[string][]byte
	delivered atomic.Int64 // 200s so far, for the CPU sampler
}

func newRecorder() *recorder { return &recorder{first: map[string][]byte{}} }

func (rec *recorder) add(s sample) {
	if s.err == nil && s.status == http.StatusOK {
		rec.delivered.Add(1)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if s.err == nil && s.status == http.StatusOK {
		k := s.req.key()
		if prev, ok := rec.first[k]; ok {
			if !bytes.Equal(prev, s.body) {
				s.err = fmt.Errorf("answer for %s differs from the first answer to the same request", k)
			}
			s.body, s.repeated = nil, true
		} else {
			rec.first[k] = s.body
		}
	}
	rec.samples = append(rec.samples, s)
}

// driver runs a workload's request stream against one server.
type driver struct {
	w       *workload
	seed    uint64
	clients []*client
	tokens  []string // session ids (session_orbit)
	next    atomic.Int64
	// sessFrame is each session's next frame number; frame 0 was the
	// pose it opened at.
	sessFrame [sessionCount]int
}

func newDriver(w *workload, seed uint64, base string, nclients int) *driver {
	d := &driver{w: w, seed: seed}
	for i := 0; i < nclients; i++ {
		d.clients = append(d.clients, newClient(base))
	}
	return d
}

func (d *driver) close() {
	for _, c := range d.clients {
		c.close()
	}
}

// warmUp brings the server to steady state: runners prepared, the
// replay pose set cached, sessions open with a path to extrapolate.
// Its answers are checked like any other.
func (d *driver) warmUp(ctx context.Context, rec *recorder) error {
	if d.w.prewarm != nil {
		d.closed(ctx, rec, time.Now(), time.Time{}, d.w.prewarm(d.seed))
	}
	if d.w.shape == sessionLoop {
		d.tokens = make([]string, sessionCount)
		for s := range d.tokens {
			tok, err := d.clients[s].openSession(ctx, d.w.gen(d.seed, s))
			if err != nil {
				return err
			}
			d.tokens[s] = tok
			d.sessFrame[s] = 1
		}
		d.sessions(ctx, rec, time.Now(), time.Time{}, d.w.warm/sessionCount)
		return ctx.Err()
	}
	reqs := make([]request, d.w.warm)
	for i := range reqs {
		reqs[i] = d.w.gen(d.seed, int(d.next.Add(1)-1))
	}
	d.closed(ctx, rec, time.Now(), time.Time{}, reqs)
	return ctx.Err()
}

// window drives the measured stream for the given duration.
func (d *driver) window(ctx context.Context, rec *recorder, start time.Time, dur time.Duration) {
	end := start.Add(dur)
	switch d.w.shape {
	case openLoop:
		d.open(ctx, rec, start, deadlineStream(d.seed, int(d.next.Load()), dur))
	case sessionLoop:
		d.sessions(ctx, rec, start, end, 0)
	default:
		d.closed(ctx, rec, start, end, nil)
	}
}

// closed is the closed loop: every client sends its next request when
// its previous one completes. With fixed set it sends exactly those;
// otherwise it draws from the stream until end.
func (d *driver) closed(ctx context.Context, rec *recorder, start, end time.Time, fixed []request) {
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for _, c := range d.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for ctx.Err() == nil {
				var r request
				if fixed != nil {
					i := int(cursor.Add(1) - 1)
					if i >= len(fixed) {
						return
					}
					r = fixed[i]
				} else {
					if !time.Now().Before(end) {
						return
					}
					r = d.w.gen(d.seed, int(d.next.Add(1)-1))
				}
				sent := time.Now()
				s := c.do(ctx, r, sent, d.tokens)
				s.done = time.Since(start)
				rec.add(s)
			}
		}(c)
	}
	wg.Wait()
}

// open is the open loop: requests go out at their due times over the
// same few connections, whatever the server is doing; one that finds
// every connection busy waits, and that wait is part of its latency.
func (d *driver) open(ctx context.Context, rec *recorder, start time.Time, reqs []request) {
	// Unbuffered: a request is handed over only when a connection is
	// free to take it.
	queue := make(chan request)
	var wg sync.WaitGroup
	for _, c := range d.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for r := range queue {
				due := start.Add(r.Due)
				lag := time.Since(due)
				s := c.do(ctx, r, due, nil)
				s.lag = lag
				s.done = time.Since(start)
				rec.add(s)
			}
		}(c)
	}
	for _, r := range reqs {
		if wait := time.Until(start.Add(r.Due)); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
			}
		}
		select {
		case queue <- r:
		case <-ctx.Done():
		}
	}
	close(queue)
	wg.Wait()
	d.next.Add(int64(len(reqs)))
}

// sessions runs one goroutine per session: frame, think, next frame.
// It stops at end, or after frames frames each when frames > 0.
func (d *driver) sessions(ctx context.Context, rec *recorder, start, end time.Time, frames int) {
	var wg sync.WaitGroup
	for s := 0; s < sessionCount; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for f := 0; ctx.Err() == nil; f++ {
				if frames > 0 && f >= frames || frames == 0 && !time.Now().Before(end) {
					return
				}
				r := d.w.gen(d.seed, d.sessFrame[s]*sessionCount+s)
				d.sessFrame[s]++
				sm := d.clients[s].do(ctx, r, time.Now(), d.tokens)
				sm.done = time.Since(start)
				rec.add(sm)
				select {
				case <-time.After(thinkTime):
				case <-ctx.Done():
				}
			}
		}(s)
	}
	wg.Wait()
}

// getJSON fetches a JSON document from the server.
func getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := (&http.Client{Timeout: requestTimeout}).Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
