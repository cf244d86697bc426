package trace

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
)

// RegisterAPI mounts the flight-recorder endpoints on mux, for GET only
// (the mux answers 405 to the rest):
//
//	GET /api/trace/recent?n=N   — newest finished traces (default 32)
//	GET /api/trace/active       — in-flight traces
//	GET /api/trace/export?n=N   — Chrome about:tracing / Perfetto JSON
//	GET /api/trace/{id}         — one trace by 16-hex-digit ID
func RegisterAPI(mux *http.ServeMux, rec *Recorder) {
	mux.HandleFunc("GET /api/trace/recent", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]any{
			"traces": recentOrEmpty(rec, queryN(r, 32)),
			"active": rec.ActiveCount(),
		})
	})
	mux.HandleFunc("GET /api/trace/active", func(w http.ResponseWriter, r *http.Request) {
		a := rec.Active()
		if a == nil {
			a = []Snapshot{}
		}
		writeJSON(w, map[string]any{"traces": a})
	})
	mux.HandleFunc("GET /api/trace/export", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="adaudit-trace.json"`)
		_ = WriteChrome(w, rec.Recent(queryN(r, 0)))
	})
	mux.HandleFunc("GET /api/trace/", func(w http.ResponseWriter, r *http.Request) {
		raw := strings.TrimPrefix(r.URL.Path, "/api/trace/")
		id, err := ParseID(raw)
		if err != nil {
			http.Error(w, "malformed trace id", http.StatusBadRequest)
			return
		}
		s, ok := rec.Get(id)
		if !ok {
			http.Error(w, "trace not found (expired from flight recorder?)", http.StatusNotFound)
			return
		}
		writeJSON(w, s)
	})
}

func recentOrEmpty(rec *Recorder, n int) []Snapshot {
	if s := rec.Recent(n); s != nil {
		return s
	}
	return []Snapshot{}
}

func queryN(r *http.Request, def int) int {
	if v := r.URL.Query().Get("n"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
