package streamaudit

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"

	"adaudit/internal/adnet"
	"adaudit/internal/audit"
	"adaudit/internal/bytecodec"
	"adaudit/internal/semsim"
)

// ExportVersion is the format version an export carries: 4, the binary
// container below. Formats 1 to 3 were JSON documents; a decoder accepts
// its own version only.
const ExportVersion = 4

// ExportMagic opens every export container.
const ExportMagic = "ADEX"

// Export is an engine's states in their wire form — everything a merge
// layer needs to reconstruct the engine's report without the store it
// was fed from. The shard-merge tier ships one Export per collector
// shard over /api/live/export and merges them (internal/shardmerge)
// into states whose report is deep-equal to a single-store FullAudit
// over the union of the shards' data.
//
// The wire form is one binary container (DESIGN §17): ExportMagic; the
// version, the seq and the campaign count as uvarints; then per campaign
// in id order its id (uvarint length, bytes), its state's length (8
// bytes little-endian) and packed form (audit.State.AppendBinary). Every
// float crosses as its eight bytes and every key as its bytes, so a
// report from a decoded Export is byte-identical to one in-process.
//
// An Export from Engine.Export holds its container and decodes its
// states when first asked (States); one from UnmarshalBinary or
// NewExport holds states and is encoded when asked. One whose states
// could not be encoded carries the error to every reader. Its text form
// (and so its JSON form) is the container in base64.
type Export struct {
	seq    int64
	bin    []byte // the container, if the export holds one
	err    error
	decode sync.Once // of bin into states, at most once
	states map[string]*audit.State
}

// NewExport returns an export of the given states at seq. The export
// owns the map and the states from then on.
func NewExport(seq int64, campaigns map[string]*audit.State) *Export {
	for id, st := range campaigns {
		if st == nil {
			return &Export{err: fmt.Errorf("streamaudit: export has no state for campaign %q", id)}
		}
	}
	return &Export{seq: seq, states: campaigns}
}

// Seq is the feed sequence the exporting engine had applied. A merged
// export sums shard Seqs — a monotone progress indicator, not a feed
// position.
func (x *Export) Seq() int64 { return x.seq }

// States returns one state per campaign the engine observed
// (impressions or conversions), decoding them on the first call. The
// states are the export's: a caller must not change them.
func (x *Export) States() (map[string]*audit.State, error) {
	if x.bin != nil {
		x.decode.Do(func() { _, x.states, x.err = decodeContainer(x.bin) })
	}
	return x.states, x.err
}

// AppendBinary appends the export's container to b.
func (x *Export) AppendBinary(b []byte) ([]byte, error) {
	switch {
	case x.bin != nil: // x.err may be a decode error, which the bytes do not have
		return append(b, x.bin...), nil
	case x.err != nil:
		return b, x.err
	}
	return appendContainer(b, x.seq, x.states)
}

// UnmarshalBinary decodes and validates an export from outside the
// process: the magic and the version before anything else, so that a
// shard of another format is named as such and not as a state that fails
// to decode; then every state (see audit.State.UnmarshalBinary). A
// container that fails anywhere is rejected whole and x is left alone.
func (x *Export) UnmarshalBinary(b []byte) error {
	seq, states, err := decodeContainer(b)
	if err != nil {
		return err
	}
	*x = Export{seq: seq, states: states}
	return nil
}

// MarshalText is the container in base64, the form an Export takes
// inside a JSON document.
func (x *Export) MarshalText() ([]byte, error) {
	bin := x.bin
	if bin == nil {
		var err error
		if bin, err = x.AppendBinary(nil); err != nil {
			return nil, err
		}
	}
	return base64.StdEncoding.AppendEncode(nil, bin), nil
}

// UnmarshalText decodes what MarshalText wrote; see UnmarshalBinary.
func (x *Export) UnmarshalText(text []byte) error {
	bin, err := base64.StdEncoding.AppendDecode(nil, text)
	if err != nil {
		return fmt.Errorf("streamaudit: export text: %w", err)
	}
	return x.UnmarshalBinary(bin)
}

// appendContainer appends the container of states at seq to b, growing
// b once: every state is laid out (audit.State.Pack) before any is
// written.
func appendContainer(b []byte, seq int64, states map[string]*audit.State) ([]byte, error) {
	ids := make([]string, 0, len(states))
	for id := range states {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	writes := make([]func([]byte) []byte, len(ids))
	size := len(ExportMagic) + 3*binary.MaxVarintLen64
	for i, id := range ids {
		n, write, err := states[id].Pack()
		if err != nil {
			return b, fmt.Errorf("streamaudit: campaign %q: %w", id, err)
		}
		writes[i], size = write, size+binary.MaxVarintLen64+len(id)+8+n
	}
	b = append(slices.Grow(b, size), ExportMagic...)
	b = binary.AppendUvarint(binary.AppendUvarint(b, ExportVersion), uint64(seq))
	b = binary.AppendUvarint(b, uint64(len(ids)))
	for i, id := range ids {
		b = bytecodec.AppendString(b, id)
		at := len(b)
		b = writes[i](binary.LittleEndian.AppendUint64(b, 0))
		binary.LittleEndian.PutUint64(b[at:], uint64(len(b)-at-8))
	}
	return b, nil
}

// decodeContainer decodes and validates a container; see UnmarshalBinary.
func decodeContainer(b []byte) (int64, map[string]*audit.State, error) {
	rest, ok := bytes.CutPrefix(b, []byte(ExportMagic))
	if !ok {
		return 0, nil, notContainer(b)
	}
	r := bytecodec.NewReader(rest)
	if v := r.Uvarint(); r.Err() == nil && v != ExportVersion {
		return 0, nil, fmt.Errorf("streamaudit: export format version %d, this build reads %d", v, ExportVersion)
	}
	seq := int64(r.Uvarint())
	n := r.Count(9) // a campaign is at least an id length and a state length
	states := make(map[string]*audit.State, n)
	for ; n > 0 && r.Err() == nil; n-- {
		id := r.String(r.Uvarint())
		var size uint64
		if raw := r.Bytes(8); raw != nil {
			size = binary.LittleEndian.Uint64(raw)
		}
		body := r.Bytes(size)
		if r.Err() != nil {
			break
		}
		if _, dup := states[id]; dup {
			return 0, nil, fmt.Errorf("streamaudit: export has campaign %q twice", id)
		}
		st := new(audit.State)
		if err := st.UnmarshalBinary(body); err != nil {
			return 0, nil, fmt.Errorf("streamaudit: campaign %q: %w", id, err)
		}
		states[id] = st
	}
	if r.Err() == nil && r.Len() > 0 {
		r.Fail(fmt.Errorf("%d bytes follow the last campaign", r.Len()))
	}
	if r.Err() != nil {
		return 0, nil, fmt.Errorf("streamaudit: export container: %w", r.Err())
	}
	return seq, states, nil
}

// notContainer says what b, which lacks the magic, is instead: an export
// of a JSON format this build no longer reads, or not an export at all.
func notContainer(b []byte) error {
	var doc struct{ Version int }
	if json.Unmarshal(b, &doc) == nil {
		return fmt.Errorf("streamaudit: export format version %d (JSON), this build reads %d", doc.Version, ExportVersion)
	}
	return errors.New("streamaudit: not an export: no container magic")
}

// Export encodes the engine's states, uncopied, under the lock that
// guards them. Safe for concurrent use; the engine keeps applying.
func (e *Engine) Export() *Export {
	e.mu.Lock()
	defer e.mu.Unlock()
	x := &Export{seq: e.appliedSeq.Load()}
	x.bin, x.err = appendContainer(nil, x.seq, e.states)
	return x
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
	states, err := exp.States()
	if err != nil {
		return nil, err
	}
	e, err := newEngine(cfg.Meta, cfg.Matcher, cfg.Sellers, cfg.Keywords, cfg.Reports)
	if err != nil {
		return nil, err
	}
	e.states = states
	e.appliedSeq.Store(exp.seq)
	return e, nil
}
