// Package trace is a lightweight, sampling, zero-dependency span
// tracer for the impression pipeline. A sampled impression yields one
// causal trace — beacon send → wire receive → decode → enrich → store
// commit → WAL append → change-feed publish → streaming-audit apply —
// with per-stage monotonic timestamps. Finished traces land in a
// bounded in-memory flight recorder (see Recorder) served over HTTP
// and exportable as Chrome about:tracing / Perfetto JSON.
//
// The design constraint is the same one internal/telemetry lives
// under: the unsampled hot path must be near-free. The sampling
// decision is a single atomic add; an unsampled impression carries a
// nil *Trace, and every method on Trace is nil-receiver-safe, so the
// pipeline threads the pointer unconditionally and pays one predicted
// branch per stage. Span buffers are pooled and recycled when the
// flight recorder evicts a trace.
package trace

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Stage names, in causal pipeline order. Stored as strings so the
// flight recorder and the Chrome export need no lookup tables.
const (
	StageBeaconSend = "beacon_send" // client stamped the payload
	// StageGatewayRecv / StageTrunkForward are stamped by the edge
	// gateway tier (internal/gateway): the gateway read the beacon's
	// payload, and the gateway flushed the session's commit onto a
	// collector trunk. They ride the trunk frame as explicit offsets and
	// are injected into the collector's adopted trace via StageAt, so a
	// gatewayed impression's trace shows both hops.
	StageGatewayRecv  = "gateway_recv"
	StageTrunkForward = "trunk_forward"
	StageWireRecv     = "wire_recv"    // collector session read the frame
	StageDecode       = "decode"       // payload parsed
	StageEnrich       = "enrich"       // geo/UA enrichment done
	StageCommit       = "commit"       // store accepted the impression
	StageWAL          = "wal_append"   // write-ahead journal entry appended
	StageFeed         = "feed_publish" // change-feed event fanned out
	StageApply        = "stream_apply" // streaming audit engine applied it
)

// ID is a 64-bit trace identifier, rendered as 16 lowercase hex digits.
type ID uint64

// String renders the canonical 16-hex-digit form.
func (id ID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// ParseID parses the canonical 16-hex-digit form (leading zeros
// optional).
func ParseID(s string) (ID, error) {
	if s == "" || len(s) > 16 {
		return 0, fmt.Errorf("trace: malformed id %q", s)
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("trace: malformed id %q", s)
	}
	return ID(v), nil
}

// idBase is a per-process random offset so IDs from independent
// processes (or restarts) do not collide; idCtr makes IDs unique
// within the process with one atomic add.
var (
	idBase uint64
	idCtr  atomic.Uint64
)

func init() {
	var b [8]byte
	if _, err := rand.Read(b[:]); err == nil {
		idBase = binary.LittleEndian.Uint64(b[:])
	} else {
		idBase = uint64(time.Now().UnixNano())
	}
}

// NextID mints a process-unique trace ID. The splitmix64 finalizer
// spreads the sequential counter across the hex space.
func NextID() ID {
	x := idBase + idCtr.Add(1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return ID(x)
}

// StagePoint is one timestamped stage within a trace. Offset is
// measured on the monotonic clock from the trace's start (for adopted
// traces, from the sender's stamped send time, clamped against clock
// skew).
type StagePoint struct {
	Name   string        `json:"name"`
	Offset time.Duration `json:"offset_ns"`
}

// Trace is one in-flight or finished impression trace. All methods
// are nil-receiver-safe no-ops so unsampled impressions thread a nil
// *Trace through the pipeline at no cost.
type Trace struct {
	id ID
	// wallStart anchors the trace on the wall clock (unix nanos) for
	// export; base anchors stage offsets on the monotonic clock.
	wallStart int64
	base      time.Time
	// initialOff shifts offsets for adopted traces: the wire transit
	// time between the sender's stamp and adoption, clamped to
	// [0, maxAdoptSkew].
	initialOff time.Duration
	rec        *Recorder

	mu        sync.Mutex
	stages    []StagePoint
	nonce     string
	campaign  string
	truncated string
	done      bool
}

// maxAdoptSkew caps the beacon-send→adopt offset so a skewed client
// clock cannot poison a trace with an hour-long first span.
const maxAdoptSkew = 5 * time.Minute

// ClampSkew bounds an offset measured from a client-stamped send time
// to [0, maxAdoptSkew]: the one clamp for every stage placed against a
// clock this process does not own, at adoption and on the edge's leg.
func ClampSkew(off time.Duration) time.Duration {
	return min(max(off, 0), maxAdoptSkew)
}

// ID returns the trace identifier (0 for nil).
func (t *Trace) ID() ID {
	if t == nil {
		return 0
	}
	return t.id
}

// Stage stamps a named stage at the current monotonic offset. Stages
// on a finished trace are dropped — late stamps (e.g. a feed
// subscriber applying after the recorder swept the trace) must not
// resurrect it.
func (t *Trace) Stage(name string) {
	if t == nil {
		return
	}
	off := t.initialOff + time.Since(t.base)
	t.mu.Lock()
	if !t.done {
		t.stages = append(t.stages, StagePoint{Name: name, Offset: off})
	}
	t.mu.Unlock()
}

// StageAt stamps a named stage at an explicit offset from the trace
// origin, instead of the local monotonic clock. A forwarding tier (the
// gateway) measures its stages against the sender's stamped send time
// and ships the offsets in its trunk frames; the collector injects them
// here so the adopted trace carries the remote hops it never observed
// locally. Negative offsets (sender clock skew) clamp to zero.
func (t *Trace) StageAt(name string, offset time.Duration) {
	if t == nil {
		return
	}
	if offset < 0 {
		offset = 0
	}
	t.mu.Lock()
	if !t.done {
		t.stages = append(t.stages, StagePoint{Name: name, Offset: offset})
	}
	t.mu.Unlock()
}

// Annotate attaches the impression's nonce and campaign so flight
// recorder entries can be correlated with store records.
func (t *Trace) Annotate(nonce, campaign string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if !t.done {
		t.nonce, t.campaign = nonce, campaign
	}
	t.mu.Unlock()
}

// Finish completes the trace and hands it to the flight recorder.
// Idempotent: the first call wins, later calls (a second feed
// subscriber, a sweep) are no-ops.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return
	}
	t.done = true
	t.mu.Unlock()
	if t.rec != nil {
		t.rec.finish(t)
	}
}

// Truncate marks the trace as explicitly incomplete (session reject,
// dropped subscriber, staleness sweep) and finishes it. The reason of
// the first Truncate/Finish call sticks.
func (t *Trace) Truncate(reason string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.done {
		t.mu.Unlock()
		return
	}
	t.truncated = reason
	t.done = true
	t.mu.Unlock()
	if t.rec != nil {
		t.rec.finish(t)
	}
}

// age reports time since the trace was created/adopted locally.
func (t *Trace) age() time.Duration { return time.Since(t.base) }

// Snapshot is an immutable copy of a trace, safe to hold after the
// recorder recycles the live object.
type Snapshot struct {
	ID        ID           `json:"-"`
	IDHex     string       `json:"id"`
	StartUnix int64        `json:"start_unix_nanos"`
	Nonce     string       `json:"nonce,omitempty"`
	Campaign  string       `json:"campaign,omitempty"`
	Stages    []StagePoint `json:"stages"`
	Done      bool         `json:"done"`
	Truncated string       `json:"truncated,omitempty"`
}

// Complete reports whether the trace finished cleanly (not truncated)
// and reached the given terminal stage.
func (s Snapshot) Complete(terminal string) bool {
	if !s.Done || s.Truncated != "" {
		return false
	}
	for _, sp := range s.Stages {
		if sp.Name == terminal {
			return true
		}
	}
	return false
}

// StageOffset returns the offset of the first stage with the given
// name, or -1 if absent.
func (s Snapshot) StageOffset(name string) time.Duration {
	for _, sp := range s.Stages {
		if sp.Name == name {
			return sp.Offset
		}
	}
	return -1
}

// Snapshot copies the trace state. Nil-safe (zero Snapshot).
func (t *Trace) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{}
	}
	t.mu.Lock()
	s := Snapshot{
		ID:        t.id,
		IDHex:     t.id.String(),
		StartUnix: t.wallStart,
		Nonce:     t.nonce,
		Campaign:  t.campaign,
		Stages:    append([]StagePoint(nil), t.stages...),
		Done:      t.done,
		Truncated: t.truncated,
	}
	t.mu.Unlock()
	return s
}

// Tracer owns the sampling decision and the flight recorder. A nil
// Tracer never samples.
type Tracer struct {
	rec *Recorder
	// every is the sampling interval: sample 1 in every Start calls.
	// 0 disables sampling entirely.
	every uint64
	tick  atomic.Uint64
}

// NewTracer builds a tracer sampling one impression in every `every`
// (1 = all, 0 or negative = none), recording into rec (which may be
// shared between tracers).
func NewTracer(rec *Recorder, every int) *Tracer {
	t := &Tracer{rec: rec}
	if every > 0 {
		t.every = uint64(every)
	}
	return t
}

// Recorder returns the tracer's flight recorder (nil for nil tracer).
func (tr *Tracer) Recorder() *Recorder {
	if tr == nil {
		return nil
	}
	return tr.rec
}

// sample makes the sampling decision: one atomic add, one modulo.
func (tr *Tracer) sample() bool {
	if tr == nil || tr.every == 0 {
		return false
	}
	if tr.every == 1 {
		return true
	}
	return tr.tick.Add(1)%tr.every == 1
}

// Start begins a new trace if this impression is sampled, returning
// nil otherwise. The caller threads the (possibly nil) *Trace through
// the pipeline.
func (tr *Tracer) Start() *Trace {
	if !tr.sample() {
		return nil
	}
	now := time.Now()
	t := tr.rec.newTrace(NextID(), now, now.UnixNano(), 0)
	return t
}

// SampleID makes the sampling decision and mints a trace ID without
// materialising a local Trace — the sender side of wire propagation:
// the beacon client stamps the ID into the payload and the collector
// adopts it into its own flight recorder.
func (tr *Tracer) SampleID() (ID, bool) {
	if !tr.sample() {
		return 0, false
	}
	return NextID(), true
}

// Adopt continues a trace whose context arrived over the wire: the
// sender already made the sampling decision and stamped its send time
// (unix nanos; 0 if unknown). The returned trace carries a
// beacon_send stage at offset 0 and a wire_recv stage at the clamped
// transit offset.
func (tr *Tracer) Adopt(id ID, sentUnixNanos int64) *Trace {
	if tr == nil || id == 0 {
		return nil
	}
	now := time.Now()
	wall := now.UnixNano()
	var transit time.Duration
	if sentUnixNanos > 0 {
		transit = ClampSkew(time.Duration(wall - sentUnixNanos))
		wall = wall - int64(transit)
	}
	t := tr.rec.newTrace(id, now, wall, transit)
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.stages = append(t.stages, StagePoint{Name: StageBeaconSend, Offset: 0})
	if sentUnixNanos > 0 {
		t.stages = append(t.stages, StagePoint{Name: StageWireRecv, Offset: transit})
	}
	t.mu.Unlock()
	return t
}

// ctxKey keys trace IDs in a context.Context for log correlation.
type ctxKey struct{}

// ContextWithID returns ctx carrying the trace ID, for attaching to
// slog records via logutil.
func ContextWithID(ctx context.Context, id ID) context.Context {
	if id == 0 {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, id)
}

// IDFromContext extracts a trace ID placed by ContextWithID.
func IDFromContext(ctx context.Context) (ID, bool) {
	if ctx == nil {
		return 0, false
	}
	id, ok := ctx.Value(ctxKey{}).(ID)
	return id, ok && id != 0
}
