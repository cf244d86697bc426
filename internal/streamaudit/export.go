package streamaudit

import (
	"encoding/json"
	"fmt"

	"adaudit/internal/adnet"
	"adaudit/internal/audit"
	"adaudit/internal/semsim"
)

// ExportVersion is the format version an Export document carries. It
// names the layout of audit.State's JSON form (version 1 was the
// per-dimension map mirror this replaced); a decoder accepts its own
// version only.
const ExportVersion = 2

// Export is an engine's states in their JSON form — everything a merge
// layer needs to reconstruct the engine's report without the store it
// was fed from. The shard-merge tier ships one Export per collector
// shard over /api/live/export and merges them (internal/shardmerge)
// into states whose report is deep-equal to a single-store FullAudit
// over the union of the shards' data.
//
// A state's slots are in store insertion order, and every float
// round-trips JSON exactly (encoding/json emits the shortest
// representation that parses back to the same float64), so a report
// materialised from a decoded Export is byte-identical to one
// materialised in-process.
//
// An Export is outside input wherever it is decoded: decoding checks
// the version and every state (see audit.State's UnmarshalJSON) and
// rejects the document whole.
type Export struct {
	Version int `json:"version"`
	// Seq is the feed sequence the exporting engine had applied. A
	// merged export sums shard Seqs — a monotone progress indicator,
	// not a feed position.
	Seq int64 `json:"seq"`
	// Campaigns holds one state per campaign the engine observed
	// (impressions or conversions).
	Campaigns map[string]*audit.State `json:"campaigns"`
}

// Validate reports what decoding would have rejected in an export
// assembled by hand: a foreign version, a campaign without a state.
// (A non-nil state is valid by construction.)
func (x *Export) Validate() error {
	if x.Version != ExportVersion {
		return fmt.Errorf("streamaudit: export format version %d, this build reads %d", x.Version, ExportVersion)
	}
	for id, st := range x.Campaigns {
		if st == nil {
			return fmt.Errorf("streamaudit: export has no state for campaign %q", id)
		}
	}
	return nil
}

// UnmarshalJSON decodes and validates an export.
func (x *Export) UnmarshalJSON(b []byte) error {
	type plain Export // without this method
	var p plain
	if err := json.Unmarshal(b, &p); err != nil {
		return err
	}
	if err := (*Export)(&p).Validate(); err != nil {
		return err
	}
	*x = Export(p)
	return nil
}

// Export copies the engine's states into an Export. Safe for
// concurrent use; the engine keeps applying deltas afterwards.
func (e *Engine) Export() *Export {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := &Export{
		Version:   ExportVersion,
		Seq:       e.appliedSeq.Load(),
		Campaigns: make(map[string]*audit.State, len(e.states)),
	}
	for id, st := range e.states {
		cp := audit.NewState()
		cp.Merge(st)
		out.Campaigns[id] = cp
	}
	return out
}

// StaticConfig configures NewStatic — Config minus the store and feed
// machinery a static engine has no use for.
type StaticConfig struct {
	// Meta resolves publisher metadata. Required.
	Meta audit.MetadataSource
	// Matcher, Keywords, Reports, Sellers: as in Config.
	Matcher  *semsim.Matcher
	Keywords map[string][]string
	Reports  map[string]*adnet.VendorReport
	Sellers  audit.SellerDirectory
}

// NewStatic builds a query-only engine over a decoded (typically
// merged) Export: Report, Summaries, LiveSummary and Audit work exactly
// as on a live engine, but there is no store and no change feed — the
// engine serves the export's own states, which must not change under
// it. Drain, Run, CaughtUp and Staleness report the engine as
// permanently caught up.
func NewStatic(cfg StaticConfig, exp *Export) (*Engine, error) {
	if exp == nil {
		return nil, fmt.Errorf("streamaudit: static engine requires an export")
	}
	if err := exp.Validate(); err != nil {
		return nil, err
	}
	e, err := newEngine(cfg.Meta, cfg.Matcher, cfg.Sellers, cfg.Keywords, cfg.Reports)
	if err != nil {
		return nil, err
	}
	e.states = exp.Campaigns
	e.appliedSeq.Store(exp.Seq)
	return e, nil
}
