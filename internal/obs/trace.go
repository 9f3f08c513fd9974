package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Stage names one step of the frame lifecycle. The enum order is the
// order a frame moves through the service; a given frame records only
// the stages its path actually took (a cache hit has no render span, a
// single-node render no shard stages).
type Stage uint8

const (
	StageAdmit         Stage = iota // admission-control decision
	StageQueueWait                  // waiting in the scheduler queue
	StageRunnerLease                // leasing/warming a simulation runner
	StageRender                     // local render (serial path)
	StageShardDispatch              // dispatching shards to the fleet
	StageRankRender                 // slowest rank's render (inside dispatch)
	StageComposite                  // image compositing (inside dispatch)
	StageEncode                     // PNG encode
	StageCacheStore                 // storing the frame in the cache
	NumStages
)

// stageNames doubles as the JSON/Prometheus label vocabulary — an API.
var stageNames = [NumStages]string{
	"admit", "queue_wait", "runner_lease", "render",
	"shard_dispatch", "rank_render", "composite", "encode", "cache_store",
}

// Name returns the stage's wire name.
func (s Stage) Name() string {
	if s >= NumStages {
		return "unknown"
	}
	return stageNames[s]
}

// FrameTrace is one frame's lifecycle record: fixed-size, no slices, so
// a trace lives on the caller's stack while the frame is in flight and
// commits into the ring by value — zero steady-state allocation.
type FrameTrace struct {
	Seq          uint64
	Backend      string
	Width        int
	Height       int
	N            int
	Shards       int
	CacheHit     bool
	Degraded     bool
	DeadlineMiss bool

	begin     time.Time
	beginUnix int64
	wall      int64
	starts    [NumStages]int64 // offset ns from begin
	durs      [NumStages]int64
	mask      uint16
}

// Begin stamps the trace's epoch; stage offsets are relative to it.
func (t *FrameTrace) Begin(now time.Time) {
	t.begin = now
	t.beginUnix = now.UnixNano()
}

// Span records one stage that started at start and took d.
func (t *FrameTrace) Span(s Stage, start time.Time, d time.Duration) {
	if s >= NumStages {
		return
	}
	t.starts[s] = int64(start.Sub(t.begin))
	t.durs[s] = int64(d)
	t.mask |= 1 << s
}

// SpanNanos records a stage from raw offsets — for durations measured
// remotely (per-rank fleet spans) where no local time.Time exists.
func (t *FrameTrace) SpanNanos(s Stage, startOffsetNanos, durNanos int64) {
	if s >= NumStages {
		return
	}
	t.starts[s] = startOffsetNanos
	t.durs[s] = durNanos
	t.mask |= 1 << s
}

// Finish stamps the frame's total wall time.
func (t *FrameTrace) Finish(now time.Time) { t.wall = int64(now.Sub(t.begin)) }

// Has reports whether stage s was recorded.
func (t *FrameTrace) Has(s Stage) bool { return s < NumStages && t.mask&(1<<s) != 0 }

// Dur returns stage s's duration (0 if absent).
func (t *FrameTrace) Dur(s Stage) time.Duration {
	if !t.Has(s) {
		return 0
	}
	return time.Duration(t.durs[s])
}

// StartOffset returns stage s's start offset from Begin (0 if absent).
func (t *FrameTrace) StartOffset(s Stage) time.Duration {
	if !t.Has(s) {
		return 0
	}
	return time.Duration(t.starts[s])
}

// Wall returns the frame's total wall time.
func (t *FrameTrace) Wall() time.Duration { return time.Duration(t.wall) }

// SpanJSON is one stage span in a trace timeline.
type SpanJSON struct {
	Stage           string  `json:"stage"`
	StartSeconds    float64 `json:"start_seconds"` // offset from frame start
	DurationSeconds float64 `json:"duration_seconds"`
}

// TraceJSON is one frame's timeline on the wire (GET /v1/trace).
type TraceJSON struct {
	Seq            uint64     `json:"seq"`
	StartUnixNanos int64      `json:"start_unix_nanos"`
	WallSeconds    float64    `json:"wall_seconds"`
	Backend        string     `json:"backend"`
	Width          int        `json:"width"`
	Height         int        `json:"height"`
	N              int        `json:"n"`
	Shards         int        `json:"shards,omitempty"`
	CacheHit       bool       `json:"cache_hit,omitempty"`
	Degraded       bool       `json:"degraded,omitempty"`
	DeadlineMiss   bool       `json:"deadline_miss,omitempty"`
	Spans          []SpanJSON `json:"spans"`
}

// JSON renders the trace's wire form.
func (t *FrameTrace) JSON() TraceJSON {
	out := TraceJSON{
		Seq:            t.Seq,
		StartUnixNanos: t.beginUnix,
		WallSeconds:    float64(t.wall) / 1e9,
		Backend:        t.Backend,
		Width:          t.Width,
		Height:         t.Height,
		N:              t.N,
		Shards:         t.Shards,
		CacheHit:       t.CacheHit,
		Degraded:       t.Degraded,
		DeadlineMiss:   t.DeadlineMiss,
	}
	for s := Stage(0); s < NumStages; s++ {
		if !t.Has(s) {
			continue
		}
		out.Spans = append(out.Spans, SpanJSON{
			Stage:           s.Name(),
			StartSeconds:    float64(t.starts[s]) / 1e9,
			DurationSeconds: float64(t.durs[s]) / 1e9,
		})
	}
	return out
}

// traceShard is one ring of committed traces. Shards cut commit
// contention; the ring is preallocated at construction so Commit only
// copies a value under a short lock.
type traceShard struct {
	mu   sync.Mutex
	buf  []FrameTrace
	next int
	n    int
	_    [64]byte // keep shards off each other's cache lines
}

// Tracer holds the sharded ring buffers committed frame traces land in.
type Tracer struct {
	shards []traceShard
	seq    atomic.Uint64
}

// NewTracer preallocates shards rings of perShard traces each.
func NewTracer(shards, perShard int) *Tracer {
	if shards < 1 {
		shards = 1
	}
	if perShard < 1 {
		perShard = 1
	}
	tr := &Tracer{shards: make([]traceShard, shards)}
	for i := range tr.shards {
		tr.shards[i].buf = make([]FrameTrace, perShard)
	}
	return tr
}

// NextSeq issues the next frame sequence number.
func (tr *Tracer) NextSeq() uint64 {
	if tr == nil {
		return 0
	}
	return tr.seq.Add(1)
}

// Commit copies the finished trace into its ring. Nil tracers (tracing
// disabled) drop the trace — callers never branch.
func (tr *Tracer) Commit(t *FrameTrace) {
	if tr == nil {
		return
	}
	sh := &tr.shards[int(t.Seq)%len(tr.shards)]
	sh.mu.Lock()
	sh.buf[sh.next] = *t
	sh.next = (sh.next + 1) % len(sh.buf)
	if sh.n < len(sh.buf) {
		sh.n++
	}
	sh.mu.Unlock()
}

// Last returns the most recent n committed traces, oldest first. Export
// path: allocates freely.
func (tr *Tracer) Last(n int) []FrameTrace {
	if tr == nil || n <= 0 {
		return nil
	}
	var all []FrameTrace
	for i := range tr.shards {
		sh := &tr.shards[i]
		sh.mu.Lock()
		for j := 0; j < sh.n; j++ {
			// Oldest slot first: the ring wraps at next.
			idx := sh.next - sh.n + j
			if idx < 0 {
				idx += len(sh.buf)
			}
			all = append(all, sh.buf[idx])
		}
		sh.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Seq < all[j].Seq })
	if len(all) > n {
		all = all[len(all)-n:]
	}
	return all
}

// WriteChromeTrace renders traces as a Chrome trace_event dump
// (chrome://tracing, Perfetto): one "X" complete event per span, one
// row (tid) per frame, timestamps in microseconds.
func WriteChromeTrace(w io.Writer, traces []FrameTrace) error {
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	first := true
	for i := range traces {
		t := &traces[i]
		for s := Stage(0); s < NumStages; s++ {
			if !t.Has(s) {
				continue
			}
			if !first {
				if _, err := io.WriteString(w, ",\n"); err != nil {
					return err
				}
			}
			first = false
			ts := float64(t.beginUnix+t.starts[s]) / 1e3
			dur := float64(t.durs[s]) / 1e3
			if _, err := fmt.Fprintf(w,
				`{"name":%q,"cat":"frame","ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":%d,"args":{"backend":%q,"seq":%d}}`,
				s.Name(), ts, dur, t.Seq, t.Backend, t.Seq); err != nil {
				return err
			}
		}
	}
	_, err := io.WriteString(w, "\n]\n")
	return err
}

// StageLatency aggregates per-stage and end-to-end latency histograms —
// the distributions behind /v1/metrics' stage table.
type StageLatency struct {
	stages [NumStages]Histogram
	total  Histogram
}

// ObserveTrace folds one finished trace into the per-stage histograms.
func (l *StageLatency) ObserveTrace(t *FrameTrace) {
	if l == nil {
		return
	}
	for s := Stage(0); s < NumStages; s++ {
		if t.mask&(1<<s) != 0 {
			l.stages[s].Observe(t.durs[s])
		}
	}
	l.total.Observe(t.wall)
}

// Stage returns the histogram for one stage (for tests and merging).
func (l *StageLatency) Stage(s Stage) *Histogram { return &l.stages[s] }

// Total returns the end-to-end wall-time histogram.
func (l *StageLatency) Total() *Histogram { return &l.total }

// StageHistogramJSON is one stage's latency distribution on the wire.
type StageHistogramJSON struct {
	Stage string `json:"stage"`
	HistogramJSON
}

// StageLatencyJSON is the full stage table: total plus every stage that
// recorded at least one span.
type StageLatencyJSON struct {
	Total  HistogramJSON        `json:"total"`
	Stages []StageHistogramJSON `json:"stages,omitempty"`
}

// JSON renders the stage table's wire form.
func (l *StageLatency) JSON() StageLatencyJSON {
	if l == nil {
		return StageLatencyJSON{}
	}
	total := l.total.Snapshot()
	out := StageLatencyJSON{Total: total.JSON()}
	for s := Stage(0); s < NumStages; s++ {
		snap := l.stages[s].Snapshot()
		if snap.Count == 0 {
			continue
		}
		out.Stages = append(out.Stages, StageHistogramJSON{Stage: s.Name(), HistogramJSON: snap.JSON()})
	}
	return out
}
