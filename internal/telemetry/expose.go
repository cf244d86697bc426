package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered series in the Prometheus
// text exposition format (version 0.0.4): one HELP/TYPE header per
// family, histogram series expanded into cumulative _bucket/_sum/_count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snaps := r.Snapshot()
	// Group by family name, preserving first-registration order.
	order := []string{}
	families := map[string][]SeriesSnapshot{}
	for _, s := range snaps {
		if _, ok := families[s.Name]; !ok {
			order = append(order, s.Name)
		}
		families[s.Name] = append(families[s.Name], s)
	}
	for _, name := range order {
		fam := families[name]
		if fam[0].Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(fam[0].Help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, fam[0].Kind); err != nil {
			return err
		}
		for _, s := range fam {
			if err := writePromSeries(w, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writePromSeries(w io.Writer, s SeriesSnapshot) error {
	if s.Hist == nil {
		_, err := fmt.Fprintf(w, "%s%s %s\n", s.Name, promLabels(s.Labels, "", ""), formatValue(s.Value))
		return err
	}
	cum := uint64(0)
	for i, c := range s.Hist.Counts {
		cum += c
		le := "+Inf"
		if i < len(s.Hist.Bounds) {
			le = formatValue(s.Hist.Bounds[i])
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", s.Name, promLabels(s.Labels, "le", le), cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", s.Name, promLabels(s.Labels, "", ""), formatValue(s.Hist.Sum)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_count%s %d\n", s.Name, promLabels(s.Labels, "", ""), s.Hist.Count); err != nil {
		return err
	}
	// Exemplar trace IDs ride in a comment so plain text-format parsers
	// (which ignore # lines) stay compatible; the JSON view carries the
	// same ID structurally.
	if s.Hist.ExemplarTraceID != "" {
		if _, err := fmt.Fprintf(w, "# EXEMPLAR %s%s trace_id=%s\n", s.Name, promLabels(s.Labels, "", ""), s.Hist.ExemplarTraceID); err != nil {
			return err
		}
	}
	return nil
}

// promLabels renders a label set, optionally appending one extra pair
// (the histogram le label). Returns "" for an empty set.
func promLabels(labels map[string]string, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	if extraKey != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraKey, extraVal)
	}
	b.WriteByte('}')
	return b.String()
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

// WriteJSON renders the expvar-style JSON view: an object keyed by
// canonical series identity. Histogram entries carry count, sum, mean
// and the p50/p90/p99 estimates alongside the raw buckets, so a
// dashboard can plot latency without re-deriving quantiles.
func (r *Registry) WriteJSON(w io.Writer) error {
	type histJSON struct {
		Count    uint64    `json:"count"`
		Sum      float64   `json:"sum"`
		Mean     float64   `json:"mean"`
		P50      float64   `json:"p50"`
		P90      float64   `json:"p90"`
		P99      float64   `json:"p99"`
		Bounds   []float64 `json:"bounds"`
		Counts   []uint64  `json:"counts"`
		Exemplar string    `json:"exemplar_trace_id,omitempty"`
	}
	out := map[string]any{}
	for _, s := range r.Snapshot() {
		if s.Hist != nil {
			out[s.Key()] = histJSON{
				Count:    s.Hist.Count,
				Sum:      s.Hist.Sum,
				Mean:     s.Hist.Mean(),
				P50:      s.Hist.Quantile(0.50),
				P90:      s.Hist.Quantile(0.90),
				P99:      s.Hist.Quantile(0.99),
				Bounds:   s.Hist.Bounds,
				Counts:   s.Hist.Counts,
				Exemplar: s.Hist.ExemplarTraceID,
			}
			continue
		}
		out[s.Key()] = s.Value
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Handler serves the Prometheus text format. Mount it under a GET
// pattern: it answers any method.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// JSONHandler serves the JSON view. Mount it under a GET pattern.
func (r *Registry) JSONHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = r.WriteJSON(w)
	})
}

// The three levels of a /healthz check, best first.
const (
	HealthOK        = "ok"
	HealthDegraded  = "degraded"
	HealthUnhealthy = "unhealthy"
)

// Health is the /healthz body of every daemon: the collector, the
// gateway and the router report in this one schema.
type Health struct {
	// Status is the worst of Checks' statuses (Add keeps it so).
	Status        string  `json:"status"`
	Tier          string  `json:"tier"`
	ID            string  `json:"id"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Sessions counts the live connections the tier tracks.
	Sessions int              `json:"sessions"`
	Checks   map[string]Check `json:"checks"`
}

// Check is one named /healthz measurement. What Limit bounds is the
// check's own: a ceiling on an age, the trunk count a pool should have
// up; 0 with no bound to enforce. A check that decides nothing stays
// "ok" and only carries its value.
type Check struct {
	Status string  `json:"status"`
	Value  float64 `json:"value"`
	Limit  float64 `json:"limit"`
	Detail string  `json:"detail,omitempty"`
}

// Add records c under name and lowers Status to c's if c's is worse
// (the first check sets it).
func (h *Health) Add(name string, c Check) {
	if h.Checks == nil {
		h.Checks = map[string]Check{}
	}
	h.Checks[name] = c
	if h.Status == "" || healthRank(c.Status) > healthRank(h.Status) {
		h.Status = c.Status
	}
}

func healthRank(status string) int {
	switch status {
	case HealthDegraded:
		return 1
	case HealthUnhealthy:
		return 2
	}
	return 0
}

// HealthHandler serves report's Health as JSON. Degraded stays 200:
// the daemon still does its job, and flapping a load balancer off a
// working node would turn a partial outage into client loss. Unhealthy
// is 503. Mount it under a GET pattern.
func HealthHandler(report func() Health) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		h := report()
		w.Header().Set("Content-Type", "application/json")
		if h.Status == HealthUnhealthy {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(h)
	})
}
