package streamaudit

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"adaudit/internal/adnet"
	"adaudit/internal/audit"
	"adaudit/internal/semsim"
)

// ExportVersion is the format version an Export document carries. It
// names the layout of audit.State's packed form (version 1 was a
// per-dimension map mirror, version 2 the state's columns as JSON
// arrays); a decoder accepts its own version only.
const ExportVersion = 3

// Export is an engine's states in their wire form — everything a merge
// layer needs to reconstruct the engine's report without the store it
// was fed from. The shard-merge tier ships one Export per collector
// shard over /api/live/export and merges them (internal/shardmerge)
// into states whose report is deep-equal to a single-store FullAudit
// over the union of the shards' data.
//
// The document is JSON — {"version":3,"seq":N,"campaigns":{id:"…"}} —
// and each campaign's value is its state's packed binary form
// (audit.State.AppendBinary) in base64. A state's slots are in store
// insertion order, every float crosses as its eight bytes and every key
// as its bytes, so a report materialised from a decoded Export is
// byte-identical to one materialised in-process.
//
// An Export is outside input wherever it is decoded: decoding checks
// the version, then every state (see audit.State.UnmarshalBinary), and
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

func errVersion(v int) error {
	return fmt.Errorf("streamaudit: export format version %d, this build reads %d", v, ExportVersion)
}

func errNoState(id string) error {
	return fmt.Errorf("streamaudit: export has no state for campaign %q", id)
}

// Validate reports what decoding would have rejected in an export
// assembled by hand: a foreign version, a campaign without a state.
// (A non-nil state is valid by construction.)
func (x *Export) Validate() error {
	if x.Version != ExportVersion {
		return errVersion(x.Version)
	}
	for id, st := range x.Campaigns {
		if st == nil {
			return errNoState(id)
		}
	}
	return nil
}

// UnmarshalJSON decodes and validates an export: the version before
// anything else, so that a shard of another format is named as such and
// not as a state that fails to decode. The three-member envelope is
// walked by hand (members): encoding/json has scanned the document
// twice by the time it calls this, and decoding the envelope through it
// scans the megabytes of base64 twice more — 60 to 80 ms of a 290 ms
// merged report of the paper dataset, whichever way it is asked to
// (CHANGES, PR 16). Members are matched the way encoding/json matches
// them: escapes resolved, case ignored, the last of a name wins.
func (x *Export) UnmarshalJSON(b []byte) error {
	var p Export
	var campaigns []byte
	err := members(b, func(name string, val []byte) error {
		switch {
		case strings.EqualFold(name, "version"):
			return json.Unmarshal(val, &p.Version)
		case strings.EqualFold(name, "seq"):
			return json.Unmarshal(val, &p.Seq)
		case strings.EqualFold(name, "campaigns"):
			campaigns = val
		}
		return nil
	})
	if err != nil {
		return err
	}
	if p.Version != ExportVersion {
		return errVersion(p.Version)
	}
	if campaigns != nil && string(campaigns) != "null" {
		p.Campaigns = map[string]*audit.State{}
		err = members(campaigns, func(id string, val []byte) error {
			if _, dup := p.Campaigns[id]; dup {
				return fmt.Errorf("streamaudit: export has campaign %q twice", id)
			}
			if string(val) == "null" {
				return errNoState(id)
			}
			// A state is base64 text, which no JSON encoder need escape;
			// one that does (`\/`), or sent no string, goes the long way.
			st := new(audit.State)
			var err error
			if len(val) >= 2 && val[0] == '"' && bytes.IndexByte(val, '\\') < 0 {
				err = st.UnmarshalText(val[1 : len(val)-1])
			} else {
				err = json.Unmarshal(val, st)
			}
			if err != nil {
				return fmt.Errorf("streamaudit: campaign %q: %w", id, err)
			}
			p.Campaigns[id] = st
			return nil
		})
		if err != nil {
			return err
		}
	}
	*x = p
	return nil
}

// members calls fn with the name and raw value of each member of the
// JSON object b ("null" has none). b is a valid JSON value — that is
// json.Unmarshaler's contract — so this only finds where names and
// values end; on anything else it fails or passes fn nonsense, but never
// reads out of bounds.
func members(b []byte, fn func(name string, val []byte) error) error {
	syntax := errors.New("streamaudit: export is not the JSON object it should be")
	i := skipSpace(b, 0)
	if string(b[i:]) == "null" {
		return nil
	}
	if i == len(b) || b[i] != '{' {
		return syntax
	}
	for i = skipSpace(b, i+1); i < len(b) && b[i] != '}'; {
		if b[i] != '"' {
			return syntax
		}
		nameEnd := valueEnd(b, i)
		var name string
		if err := json.Unmarshal(b[i:nameEnd], &name); err != nil {
			return err
		}
		colon := skipSpace(b, nameEnd)
		if colon == len(b) || b[colon] != ':' {
			return syntax
		}
		val := skipSpace(b, colon+1)
		end := valueEnd(b, val)
		if end == val {
			return syntax
		}
		if err := fn(name, b[val:end]); err != nil {
			return err
		}
		if i = skipSpace(b, end); i < len(b) && b[i] == ',' {
			i = skipSpace(b, i+1)
		}
	}
	if i == len(b) || skipSpace(b, i+1) != len(b) {
		return syntax
	}
	return nil
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}

// valueEnd returns the index just past the JSON value that starts at
// b[i]: a string ends at its closing quote, an object or array where
// its brackets balance, a number or literal before the next delimiter.
func valueEnd(b []byte, i int) int {
	for depth := 0; i < len(b); {
		switch b[i] {
		case '"':
			for i++; ; i++ {
				q := bytes.IndexByte(b[i:], '"')
				if q < 0 {
					return len(b)
				}
				i += q
				esc := i
				for b[esc-1] == '\\' { // stops at the opening quote at the latest
					esc--
				}
				if (i-esc)%2 == 0 {
					break // a quote after an even number of backslashes closes the string
				}
			}
			i++
		case '{', '[':
			depth++
			i++
			continue
		case '}', ']':
			if depth == 0 {
				return i // the enclosing object's, after a number or literal
			}
			depth--
			i++
		case ',', ' ', '\t', '\r', '\n':
			if depth == 0 {
				return i // after a number or literal
			}
			i++
			continue
		default:
			i++
			continue
		}
		if depth == 0 {
			return i
		}
	}
	return len(b)
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
	// Meta resolves publisher metadata. Required; safe for concurrent
	// lookups, as in Config.
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
