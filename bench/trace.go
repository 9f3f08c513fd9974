package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (spans inside the program are a later change). Spans of one
// request share its id; parent is an index into the tracer's spans, -1
// for a root.
type span struct {
	name    string
	start   time.Duration // offset from the tracer's epoch
	dur     time.Duration
	parent  int
	request int
}

// tracer keeps spans in memory and writes them once, at the end. A nil
// tracer records nothing: the untraced replay runs the same code.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 4096)} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent, request int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.epoch), parent: parent, request: request})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].dur = time.Since(t.epoch) - t.spans[i].start
}

// selfTimes is each span's duration minus the part its children cover.
// The replay is sequential, so a span's children never overlap.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i := range t.spans {
		self[i] += t.spans[i].dur
		if p := t.spans[i].parent; p >= 0 {
			self[p] -= t.spans[i].dur
		}
	}
	return self
}

// chromeEvent is one complete ("X") event of the Chrome trace_event
// format; ts and dur are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write stores the spans as a trace_event array that chrome://tracing
// and ui.perfetto.dev open directly.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	self := t.selfTimes()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	w.WriteString("[\n")
	for i := range t.spans {
		s := &t.spans[i]
		if i > 0 {
			w.WriteString(",")
		}
		err := enc.Encode(chromeEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.dur) / float64(time.Microsecond),
			Args: map[string]any{
				"request": s.request, "span": i, "parent": s.parent,
				"self_us": float64(self[i]) / float64(time.Microsecond),
			},
		})
		if err != nil {
			f.Close()
			return err
		}
	}
	w.WriteString("]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
