package gateway

import (
	"context"
	"log/slog"
	"net/http"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"adaudit/internal/beacon"
	"adaudit/internal/store"
	"adaudit/internal/tiertest"
	"adaudit/internal/wsproto"
)

// runSession reports p over wire to a beacon endpoint, sending updates
// after the opening payload, and returns the record it left in st.
func runSession(t *testing.T, url, wire string, p beacon.Payload, updates []beacon.Event, st *store.Store) store.Impression {
	t.Helper()
	n := st.Len()
	// An explicit header keeps the client from copying the payload's
	// User-Agent, which may be invalid UTF-8, into the handshake.
	client := &beacon.Client{CollectorURL: url, Wire: wire, Dialer: wsproto.Dialer{Header: http.Header{}}}
	sess, err := client.Open(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range updates {
		if err := sess.SendEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	tiertest.WaitFor(t, "the session's record", func() bool { return st.Len() == n+1 })
	im, ok := st.Get(int64(n + 1))
	if !ok {
		t.Fatalf("record %d missing", n+1)
	}
	return im
}

// TestForwardedEqualsDirect: a session sent straight to a collector and
// the same session sent through a gateway to another collector leave the
// same record, on either wire, though the trunk always carries the
// binary encoding. Only what the path decides may differ: the ID, the
// timestamp, the exposure and the nonce a gateway mints for a payload
// without one.
func TestForwardedEqualsDirect(t *testing.T) {
	directStore, fwdStore := store.New(), store.New()
	direct, directAddr, _ := startCollector(t, directStore)
	fwd, fwdAddr, _ := startCollector(t, fwdStore)
	g, gsrv := startGateway(t, fastConfig(trunkURL(fwdAddr)))
	tiertest.WaitFor(t, "trunks to establish", func() bool { return g.Health().Status == "ok" })

	base := func() beacon.Payload {
		return beacon.Payload{
			CampaignID: "Gateway-001", CreativeID: "cr-eq",
			PageURL: "http://pub.es/p", UserAgent: "Mozilla/5.0 Chrome/49.0",
			Nonce: beacon.NewNonce(),
		}
	}
	for _, tc := range []struct {
		name    string
		edit    func(*beacon.Payload)
		updates []beacon.Event
	}{
		{"every event kind, fractions that quantise", func(p *beacon.Payload) {
			p.Events = []beacon.Event{
				{Kind: beacon.EventMouseMove, At: 10 * time.Millisecond},
				{Kind: beacon.EventVisibility, At: 20 * time.Millisecond, Fraction: 0.3337},
			}
		}, []beacon.Event{
			{Kind: beacon.EventClick, At: 30 * time.Millisecond},
			{Kind: beacon.EventVisibility, At: 40 * time.Millisecond, Fraction: 0.6664},
			{Kind: beacon.EventMouseMove, At: 50 * time.Millisecond},
		}},
		{"invalid UTF-8 in the user agent", func(p *beacon.Payload) {
			p.UserAgent = "Mozilla/5.0 \xff\xfe Chrome/49.0"
		}, nil},
		{"escapes in the page URL", func(p *beacon.Payload) {
			p.PageURL = "http://www.Pub.es/a%20b?q=caf%C3%A9&next=%2Fhome"
		}, nil},
		{"trace context", func(p *beacon.Payload) {
			p.TraceID, p.TraceSent = "0123456789abcdef", time.Now().UnixNano()
		}, []beacon.Event{{Kind: beacon.EventClick, At: time.Millisecond}}},
		{"no nonce", func(p *beacon.Payload) { p.Nonce = "" }, nil},
	} {
		for _, wire := range []string{beacon.WireText, beacon.WireBinary} {
			t.Run(tc.name+"/"+wire, func(t *testing.T) {
				p := base()
				tc.edit(&p)
				want := runSession(t, "ws://"+directAddr+"/beacon", wire, p, tc.updates, directStore)
				got := runSession(t, gsrv.BeaconURL(), wire, p, tc.updates, fwdStore)
				if p.Nonce == "" {
					if got.Nonce == "" {
						t.Fatal("gateway forwarded a payload without minting a nonce")
					}
					got.Nonce = ""
				}
				for _, im := range []*store.Impression{&want, &got} {
					im.ID, im.Timestamp, im.Exposure = 0, time.Time{}, 0
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("forwarded record differs from direct:\n got %+v\nwant %+v", got, want)
				}
			})
		}
	}
	if d, f := direct.Metrics.Events.Load(), fwd.Metrics.Events.Load(); d != f {
		t.Fatalf("events counted: %d direct, %d forwarded", d, f)
	}
}

// lostTrunks counts the edge's "trunk lost" warnings.
type lostTrunks struct{ n atomic.Int64 }

func (h *lostTrunks) Enabled(context.Context, slog.Level) bool { return true }
func (h *lostTrunks) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *lostTrunks) WithGroup(string) slog.Handler            { return h }
func (h *lostTrunks) Handle(_ context.Context, r slog.Record) error {
	if r.Message == "edge: trunk lost" {
		h.n.Add(1)
	}
	return nil
}

// TestLongSessionLandsOnce: a session that sends more updates than
// beacon.MaxEvents is bounded at the edge as at a collector, so its
// commit fits a trunk message: one record, one ack, no trunk lost. An
// unbounded commit is refused by the collector's frame limit, which
// closes the trunk; the replay then closes every trunk it is sent on.
func TestLongSessionLandsOnce(t *testing.T) {
	const updates = 70_000
	st := store.New()
	c, addr, _ := startCollector(t, st)
	lost := &lostTrunks{}
	cfg := fastConfig(trunkURL(addr))
	cfg.Logger = slog.New(lost)
	// The collector answers no ping while it ingests the commit, which
	// under -race outlasts two of fastConfig's 50 ms intervals.
	cfg.KeepAliveInterval = 5 * time.Second
	g, gsrv := startGateway(t, cfg)
	tiertest.WaitFor(t, "trunks to establish", func() bool { return g.Health().Status == "ok" })

	client := &beacon.Client{CollectorURL: gsrv.BeaconURL(), Wire: beacon.WireBinary}
	sess, err := client.Open(context.Background(), tiertest.Payload(0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < updates; i++ {
		// A time of 2^42 ms takes 7 varint bytes: each event is the
		// largest the binary wire encodes (16 bytes), so the commit is
		// the largest a session can make, just over 1 MiB.
		at := time.Duration(1<<42+i) * time.Millisecond
		e := beacon.Event{Kind: beacon.EventVisibility, At: at, Fraction: float64(i%1000) / 1000}
		if err := sess.SendEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}

	tiertest.WaitFor(t, "the session's commit to be acked", func() bool {
		return series(g, "adaudit_gateway_acks_total") == 1
	})
	if n := st.Len(); n != 1 {
		t.Fatalf("collector stored %d records, want 1", n)
	}
	im, _ := st.Get(1)
	if !im.VisibilityMeasured || im.MaxVisibleFraction != 0.999 {
		t.Fatalf("record = %+v, want visibility measured at 0.999", im)
	}
	if got := c.Metrics.Events.Load(); got != beacon.MaxEvents {
		t.Fatalf("collector counted %d events, want the bound %d", got, beacon.MaxEvents)
	}
	if n := lost.n.Load(); n != 0 {
		t.Fatalf("%d trunks lost", n)
	}
}
