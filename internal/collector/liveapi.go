package collector

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"adaudit/internal/shardmerge"
	"adaudit/internal/streamaudit"
)

// liveAPI serves the streaming-audit endpoints of the collector — the
// incremental counterpart of queryAPI, answering from the streamaudit
// engine's O(state) aggregates instead of rescanning the store:
//
//	GET /api/live/summary             — every campaign's live summary
//	GET /api/live/audit/{campaign}    — one campaign's five-dimension audit
//	GET /api/live/stream              — SSE feed of dimension updates
//	GET /api/live/export              — the engine's full incremental state
//	                                    (a streamaudit.Export container),
//	                                    what the shard-merge tier unions
//
// The SSE stream emits one "summary" event per batch of changed
// campaigns (coalesced by the engine's Updates listener, so a slow
// dashboard sees fewer, fresher events rather than a backlog), plus an
// initial snapshot on connect and periodic heartbeat comments to keep
// intermediaries from timing the connection out.
type liveAPI struct {
	engine *streamaudit.Engine

	// stop closes when the server begins shutdown, so SSE handlers end
	// promptly instead of pinning http.Server.Shutdown until its
	// timeout.
	stop chan struct{}
}

func newLiveAPI(e *streamaudit.Engine) *liveAPI {
	return &liveAPI{engine: e, stop: make(chan struct{})}
}

// register mounts the endpoints for GET only; the mux answers 405 to the rest.
func (l *liveAPI) register(mux *http.ServeMux) {
	engine := func(context.Context) (*streamaudit.Engine, error) { return l.engine, nil }
	mux.Handle("GET /api/live/summary", shardmerge.SummaryHandler(engine))
	mux.Handle("GET /api/live/audit/", shardmerge.AuditHandler(engine))
	mux.HandleFunc("GET /api/live/stream", l.handleStream)
	mux.HandleFunc("GET /api/live/export", l.handleExport)
}

// shutdown ends every open SSE stream; the server's shutdown, which
// calls it once, waits for their handlers to return.
func (l *liveAPI) shutdown() { close(l.stop) }

// handleExport serves the engine's incremental state as an export
// container. The engine drains whatever the feed already buffered
// first, so an export taken at quiescence reflects every acknowledged
// mutation — the property the shard-merge exactness contract needs.
func (l *liveAPI) handleExport(w http.ResponseWriter, r *http.Request) {
	l.engine.Drain()
	shardmerge.WriteExport(w, l.engine.Export())
}

// sseHeartbeat keeps idle streams alive through proxies.
const sseHeartbeat = 15 * time.Second

func (l *liveAPI) handleStream(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	select {
	case <-l.stop:
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	default:
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")

	u := l.engine.Listen()
	defer l.engine.Unlisten(u)

	// Initial snapshot so a fresh client needs no separate poll.
	if err := writeSSE(w, "snapshot", l.engine.Summaries()); err != nil {
		return
	}
	flusher.Flush()

	heartbeat := time.NewTicker(sseHeartbeat)
	defer heartbeat.Stop()
	for {
		select {
		case <-l.stop:
			// Graceful server shutdown: tell the client it was the
			// server, not the network.
			fmt.Fprint(w, "event: shutdown\ndata: {}\n\n")
			flusher.Flush()
			return
		case <-r.Context().Done():
			return
		case <-heartbeat.C:
			if _, err := fmt.Fprint(w, ": heartbeat\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case <-u.C():
			dirty := u.Take()
			sums := make([]streamaudit.CampaignLive, 0, len(dirty))
			for _, id := range dirty {
				if s, ok := l.engine.LiveSummary(id); ok {
					sums = append(sums, s)
				}
			}
			if len(sums) == 0 {
				continue
			}
			if err := writeSSE(w, "summary", sums); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}

// writeSSE emits one server-sent event with a JSON payload.
func writeSSE(w http.ResponseWriter, event string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	return err
}
