package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sort"
	"time"

	"insitu/internal/registry"
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

// LogRequests is minimal access logging middleware, shared by the
// serving binaries.
func LogRequests(logf func(format string, args ...any), next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		logf("%s %s %s", r.Method, r.URL.Path, time.Since(start))
	})
}
