package collector

import (
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"time"

	"adaudit/internal/audit"
	"adaudit/internal/store"
)

// queryAPI serves the advertiser-facing JSON endpoints of the collector
// — the live view an auditing dashboard polls while campaigns run:
//
//	GET /api/campaigns                    — campaign list with counters
//	GET /api/summary?campaign=ID          — one campaign's live summary
//	GET /api/publishers?campaign=ID&limit=N — top delivering publishers
//
// All data comes from the impression store; vendor-independent by
// construction, exactly as the paper's methodology demands.
type queryAPI struct {
	st *store.Store
}

// CampaignSummary is the /api/summary response.
type CampaignSummary struct {
	CampaignID  string `json:"campaign_id"`
	Impressions int    `json:"impressions"`
	Publishers  int    `json:"publishers"`
	Users       int    `json:"users"`
	Clicks      int    `json:"clicks"`
	Conversions int    `json:"conversions"`
	// ViewableUpperBound is the fraction exposed >= 1 s.
	ViewableUpperBound float64 `json:"viewable_upper_bound"`
	// DataCenterShare is the fraction of impressions from DC addresses.
	DataCenterShare float64 `json:"data_center_share"`
	// FirstSeen/LastSeen bound the observed delivery window.
	FirstSeen time.Time `json:"first_seen"`
	LastSeen  time.Time `json:"last_seen"`
}

// CampaignListEntry is one row of the /api/campaigns response.
type CampaignListEntry struct {
	CampaignID  string `json:"campaign_id"`
	Impressions int    `json:"impressions"`
}

// PublisherRow is one row of the /api/publishers response.
type PublisherRow struct {
	Publisher   string `json:"publisher"`
	Impressions int    `json:"impressions"`
	Clicks      int    `json:"clicks"`
}

// TimeseriesPoint is one bucket of the /api/timeseries response.
type TimeseriesPoint struct {
	Start       time.Time `json:"start"`
	Impressions int       `json:"impressions"`
	Clicks      int       `json:"clicks"`
	DataCenter  int       `json:"data_center"`
}

// register mounts the endpoints for GET only; the mux answers 405 to the rest.
func (q *queryAPI) register(mux *http.ServeMux) {
	mux.HandleFunc("GET /api/campaigns", q.handleCampaigns)
	mux.HandleFunc("GET /api/summary", q.handleSummary)
	mux.HandleFunc("GET /api/publishers", q.handlePublishers)
	mux.HandleFunc("GET /api/timeseries", q.handleTimeseries)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (q *queryAPI) handleCampaigns(w http.ResponseWriter, r *http.Request) {
	out := []CampaignListEntry{}
	for _, id := range q.st.Campaigns() {
		out = append(out, CampaignListEntry{
			CampaignID:  id,
			Impressions: q.st.CampaignLen(id),
		})
	}
	writeJSON(w, out)
}

func (q *queryAPI) handleSummary(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("campaign")
	if id == "" {
		http.Error(w, "missing campaign parameter", http.StatusBadRequest)
		return
	}
	// One audit state folded over the campaign's rows, in one visit, and
	// its conversions: the live engine's summary, by the same rules.
	st := audit.NewState()
	q.st.VisitCampaign(id, func(im *store.Impression) bool {
		st.Insert(im)
		return true
	})
	if st.Len() == 0 {
		http.Error(w, "unknown campaign", http.StatusNotFound)
		return
	}
	for _, c := range q.st.Conversions(id) {
		st.Convert(c.UserKey)
	}
	s := st.Summary()
	writeJSON(w, CampaignSummary{
		CampaignID: id, Impressions: s.Impressions, Publishers: s.Publishers, Users: s.Users,
		Clicks: s.Clicks, Conversions: s.Conversions,
		ViewableUpperBound: s.ViewableUpperBound, DataCenterShare: s.DataCenterShare,
		FirstSeen: s.FirstSeen, LastSeen: s.LastSeen,
	})
}

// handleTimeseries buckets a campaign's impressions over time —
// GET /api/timeseries?campaign=ID&bucket=1h — the delivery-pacing view
// a dashboard plots.
func (q *queryAPI) handleTimeseries(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("campaign")
	if id == "" {
		http.Error(w, "missing campaign parameter", http.StatusBadRequest)
		return
	}
	bucket := time.Hour
	if raw := r.URL.Query().Get("bucket"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d < time.Minute || d > 7*24*time.Hour {
			http.Error(w, "bad bucket duration", http.StatusBadRequest)
			return
		}
		bucket = d
	}
	byBucket := map[time.Time]*TimeseriesPoint{}
	q.st.VisitCampaign(id, func(im *store.Impression) bool {
		start := im.Timestamp.Truncate(bucket)
		p := byBucket[start]
		if p == nil {
			p = &TimeseriesPoint{Start: start}
			byBucket[start] = p
		}
		p.Impressions++
		p.Clicks += im.Clicks
		if audit.IsDataCenterVerdict(im.DataCenter) {
			p.DataCenter++
		}
		return true
	})
	if len(byBucket) == 0 {
		http.Error(w, "unknown campaign", http.StatusNotFound)
		return
	}
	out := make([]TimeseriesPoint, 0, len(byBucket))
	for _, p := range byBucket {
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	writeJSON(w, out)
}

func (q *queryAPI) handlePublishers(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("campaign")
	if id == "" {
		http.Error(w, "missing campaign parameter", http.StatusBadRequest)
		return
	}
	limit := 50
	if raw := r.URL.Query().Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 || n > 10_000 {
			http.Error(w, "bad limit", http.StatusBadRequest)
			return
		}
		limit = n
	}
	type agg struct{ imps, clicks int }
	counts := map[string]*agg{}
	q.st.VisitCampaign(id, func(im *store.Impression) bool {
		a := counts[im.Publisher]
		if a == nil {
			a = &agg{}
			counts[im.Publisher] = a
		}
		a.imps++
		a.clicks += im.Clicks
		return true
	})
	if len(counts) == 0 {
		http.Error(w, "unknown campaign", http.StatusNotFound)
		return
	}
	rows := make([]PublisherRow, 0, len(counts))
	for pub, a := range counts {
		rows = append(rows, PublisherRow{Publisher: pub, Impressions: a.imps, Clicks: a.clicks})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Impressions != rows[j].Impressions {
			return rows[i].Impressions > rows[j].Impressions
		}
		return rows[i].Publisher < rows[j].Publisher
	})
	if len(rows) > limit {
		rows = rows[:limit]
	}
	writeJSON(w, rows)
}
