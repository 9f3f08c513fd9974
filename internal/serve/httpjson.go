package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"time"

	"insitu/internal/registry"
)

// WriteJSON encodes v into a buffer before touching the ResponseWriter,
// so an encoding failure (which should be impossible now that serving
// responses sanitize non-finite floats, but defense in depth) surfaces
// as a clean 500 instead of a truncated 200. The buffer's length is the
// Content-Length, so a body over net/http's 2 KB chunking threshold is
// not sent chunked. Every renderd JSON route answers through it.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		status = http.StatusInternalServerError
		msg, _ := json.Marshal(map[string]string{"error": "response not encodable: " + err.Error()})
		buf.Reset()
		buf.Write(msg)
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

// ModelsBody is the /v1/models response of both serving binaries: the
// loaded registry's contents and the generation clients watch to see a
// reload or a calibration refit land.
type ModelsBody struct {
	Generation  uint64              `json:"generation"`
	Source      string              `json:"source"`
	CreatedUnix int64               `json:"created_unix"`
	Mapping     registry.MappingDoc `json:"mapping"`
	Archs       []string            `json:"archs"`
	Models      []registry.ModelDoc `json:"models"`
	Compositing *registry.ModelDoc  `json:"compositing,omitempty"`
}

// ModelsHandler answers /v1/models from one consistent view of reg: 200
// with its contents, or 503 while no snapshot is loaded.
func ModelsHandler(reg *registry.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		v, err := reg.View()
		if err != nil {
			WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "no registry loaded"})
			return
		}
		snap := v.Snapshot()
		archs := make([]string, 0, 2)
		seen := map[string]bool{}
		for _, d := range snap.Models {
			if !seen[d.Arch] {
				seen[d.Arch] = true
				archs = append(archs, d.Arch)
			}
		}
		sort.Strings(archs)
		WriteJSON(w, http.StatusOK, ModelsBody{
			Generation:  v.Generation(),
			Source:      snap.Source,
			CreatedUnix: snap.CreatedUnix,
			Mapping:     snap.Mapping,
			Archs:       archs,
			Models:      snap.Models,
			Compositing: snap.Compositing,
		})
	}
}

// LogRequests is the serving binaries' access log: one line — method,
// path, status, duration — for each answer with status >= 400, and
// nothing for a success. A cache-hit frame costs two socket writes; a
// log line per answer would be a third.
func LogRequests(logf func(format string, args ...any), next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		if sw.status >= http.StatusBadRequest {
			logf("%s %s %d %s", r.Method, r.URL.Path, sw.status, time.Since(start))
		}
	})
}

// statusWriter records the status a handler answers with. It keeps the
// wrapped writer's Flush, which the session stream calls after each
// part, and Unwrap serves http.ResponseController.
type statusWriter struct {
	http.ResponseWriter
	status int
	sent   bool // the status is final: a non-1xx WriteHeader, a Write or a Flush
}

func (s *statusWriter) WriteHeader(code int) {
	if !s.sent && code >= http.StatusOK {
		s.status, s.sent = code, true
	}
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusWriter) Write(p []byte) (int, error) {
	s.sent = true
	return s.ResponseWriter.Write(p)
}

func (s *statusWriter) Flush() {
	s.sent = true
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *statusWriter) Unwrap() http.ResponseWriter { return s.ResponseWriter }
