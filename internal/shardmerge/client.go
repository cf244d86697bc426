package shardmerge

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"adaudit/internal/streamaudit"
)

// ExportPath is the collector endpoint serving a shard's
// streamaudit.Export container (WriteExport).
const ExportPath = "/api/live/export"

// maxExportBytes bounds one shard's export (a runaway shard must not OOM
// the router).
const maxExportBytes = 256 << 20

// Client fetches per-shard exports over HTTP and merges them. Shard
// order in Shards is the merge order — keep it identical across
// routers, restarts and the reference single-store audit, or float
// aggregates lose bit-stability (counts stay exact either way).
type Client struct {
	// Shards lists the shard base URLs (for example
	// "http://10.0.0.1:8443") in shard order.
	Shards []string
	// HTTPClient overrides http.DefaultClient.
	HTTPClient *http.Client
	// Timeout bounds each per-shard fetch when the caller's context has
	// no earlier deadline (default 10s).
	Timeout time.Duration
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// FetchExports retrieves every shard's export concurrently, returning
// them in shard order. All shards must answer: one unreachable shard
// fails the fetch, because a merged report silently missing a shard's
// slice of the data is worse than no report.
func (c *Client) FetchExports(ctx context.Context) ([]*streamaudit.Export, error) {
	timeout := c.Timeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	exports := make([]*streamaudit.Export, len(c.Shards))
	errs := make([]error, len(c.Shards))
	var wg sync.WaitGroup
	for i, base := range c.Shards {
		wg.Add(1)
		go func(i int, base string) {
			defer wg.Done()
			exports[i], errs[i] = c.fetchOne(ctx, base)
		}(i, base)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shardmerge: shard %d (%s): %w", i, c.Shards[i], err)
		}
	}
	return exports, nil
}

// FetchMerged fetches every shard and merges in shard order.
func (c *Client) FetchMerged(ctx context.Context) (*streamaudit.Export, error) {
	exports, err := c.FetchExports(ctx)
	if err != nil {
		return nil, err
	}
	return Merge(exports), nil
}

func (c *Client) fetchOne(ctx context.Context, base string) (*streamaudit.Export, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+ExportPath, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("export fetch: %s: %s", resp.Status, body)
	}
	tooLarge := fmt.Errorf("export larger than the %d bytes a router reads", maxExportBytes)
	if resp.ContentLength > maxExportBytes {
		return nil, tooLarge
	}
	// Sized from Content-Length, if any, to read the body in one allocation.
	body := bytes.NewBuffer(make([]byte, 0, max(resp.ContentLength, 0)+bytes.MinRead))
	if _, err := body.ReadFrom(io.LimitReader(resp.Body, maxExportBytes+1)); err != nil {
		return nil, fmt.Errorf("reading export: %w", err)
	}
	if body.Len() > maxExportBytes {
		return nil, tooLarge
	}
	exp := new(streamaudit.Export)
	if err := exp.UnmarshalBinary(body.Bytes()); err != nil {
		return nil, fmt.Errorf("decoding export: %w", err)
	}
	return exp, nil
}

// WriteExport answers a GET of ExportPath with x's container, raw. An
// export whose states could not be encoded is a 500 that says why.
func WriteExport(w http.ResponseWriter, x *streamaudit.Export) {
	bin, err := x.AppendBinary(nil)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(bin)))
	_, _ = w.Write(bin) // a failed write means the reader went away: no one to tell
}

// SummaryHandler answers GET /api/live/summary with every campaign's
// live summary from the engine engine returns. A collector hands it its
// live engine, a router one built over the merged shard exports; an
// error getting the engine (a shard fetch) is a 502.
func SummaryHandler(engine func(context.Context) (*streamaudit.Engine, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		eng, err := engine(r.Context())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		writeJSON(w, eng.Summaries())
	}
}

// AuditHandler answers GET /api/live/audit/{campaign} with one
// campaign's audit: 400 without an id, 502 when engine fails, 500 when
// the audit does, 404 for a campaign the engine has not seen.
func AuditHandler(engine func(context.Context) (*streamaudit.Engine, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/api/live/audit/")
		if id == "" || strings.Contains(id, "/") {
			http.Error(w, "missing campaign id", http.StatusBadRequest)
			return
		}
		eng, err := engine(r.Context())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		la, ok, err := eng.Audit(id)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if !ok {
			http.Error(w, "unknown campaign", http.StatusNotFound)
			return
		}
		writeJSON(w, la)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
