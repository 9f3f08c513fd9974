package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"time"
)

// WriteJSON encodes v into a buffer before touching the ResponseWriter,
// so an encoding failure (which should be impossible now that serving
// responses sanitize non-finite floats, but defense in depth) surfaces
// as a clean 500 instead of a truncated 200. Shared by the serving
// binaries (advisord, renderd) so the two response paths cannot drift.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		body, _ := json.Marshal(map[string]string{"error": "response not encodable: " + err.Error()})
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = w.Write(body)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

// LogRequests is minimal access logging middleware, shared by the
// serving binaries.
func LogRequests(logf func(format string, args ...any), next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		logf("%s %s %s", r.Method, r.URL.Path, time.Since(start))
	})
}
