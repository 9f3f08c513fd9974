package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// TestLogRequestsLogsOnlyErrors: a success writes no log line; an error
// status writes exactly one, and the line carries the status.
func TestLogRequestsLogsOnlyErrors(t *testing.T) {
	for _, status := range []int{http.StatusOK, http.StatusBadRequest, http.StatusUnprocessableEntity} {
		var lines []string
		logf := func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
		h := LogRequests(logf, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			WriteJSON(w, status, map[string]int{"status": status})
		}))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/frame?n=8", nil))
		if rec.Code != status {
			t.Fatalf("answered %d, want %d", rec.Code, status)
		}
		want := 0
		if status >= http.StatusBadRequest {
			want = 1
		}
		if len(lines) != want {
			t.Fatalf("status %d: %d log lines %q, want %d", status, len(lines), lines, want)
		}
		if want == 1 && !strings.HasPrefix(lines[0], "GET /v1/frame "+strconv.Itoa(status)+" ") {
			t.Errorf("status %d: log line %q lacks method, path and status", status, lines[0])
		}
	}
}

// TestLogRequestsKeepsWriterInterfaces: the logging wrapper still
// flushes (the session stream's parts depend on it) and unwraps for
// http.ResponseController; an implicit 200 from a bare Write is not
// logged even if a later, superfluous WriteHeader says otherwise.
func TestLogRequestsKeepsWriterInterfaces(t *testing.T) {
	var lines []string
	logf := func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
	h := LogRequests(logf, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if _, ok := w.(http.Flusher); !ok {
			t.Error("wrapped writer lost http.Flusher")
		}
		_, _ = w.Write([]byte("part"))
		if err := http.NewResponseController(w).Flush(); err != nil {
			t.Errorf("ResponseController.Flush through the wrapper: %v", err)
		}
		w.WriteHeader(http.StatusInternalServerError)
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/session/x/stream", nil))
	if !rec.Flushed {
		t.Error("Flush did not reach the underlying writer")
	}
	if len(lines) != 0 {
		t.Errorf("a 200 stream logged %q", lines)
	}
}
