package collector

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"adaudit/internal/beacon"
	"adaudit/internal/trunk/trunktest"
	"adaudit/internal/wsproto"
)

// newHardenedServer boots a full Server around a testCollector with the
// given config tweaks and server options applied.
func newHardenedServer(t *testing.T, tweak func(*Collector), opts ...ServerOption) (*Server, *Collector) {
	t.Helper()
	c, _ := testCollector(t)
	if tweak != nil {
		tweak(c)
	}
	srv, err := NewServer(c, "127.0.0.1:0", opts...)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("server did not shut down")
		}
	})
	return srv, c
}

func TestSessionCapShedsWith503(t *testing.T) {
	srv, c := newHardenedServer(t, func(c *Collector) { c.cfg.MaxSessions = 2 })

	// Fill the cap with two held-open sessions.
	cl := &beacon.Client{CollectorURL: srv.BeaconURL()}
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		p := samplePayload()
		p.CreativeID = fmt.Sprintf("cr-%d", i)
		sess, err := cl.Open(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
	}
	waitFor(t, func() bool { return c.SessionCount() == 2 })

	// The third beacon is shed before the upgrade.
	httpURL := "http" + strings.TrimPrefix(srv.BeaconURL(), "ws")
	resp, err := http.Get(httpURL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("over-cap request got %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After hint")
	}
	if got := c.tel.sheds.Load(); got != 1 {
		t.Fatalf("sheds counter = %d, want 1", got)
	}
	// A WebSocket attempt is refused the same way and surfaces the 503
	// to the dialer.
	if _, err := cl.Open(ctx, samplePayload()); err == nil {
		t.Fatal("over-cap Open succeeded")
	} else if !strings.Contains(err.Error(), "503") {
		t.Fatalf("over-cap Open failed with %v, want a 503 rejection", err)
	}
}

func TestSessionPanicIsRecoveredAndIsolated(t *testing.T) {
	// The binary decode blows up on one creative: a bug a malformed
	// frame trips, deterministically.
	srv, c := newHardenedServer(t, func(c *Collector) {
		decode := c.sessions.DecodeBinary
		c.sessions.DecodeBinary = func(p *beacon.Payload, msg []byte) error {
			err := decode(p, msg)
			if p.CreativeID == "boom" {
				panic("injected session failure")
			}
			return err
		}
	})
	cl := &beacon.Client{CollectorURL: srv.BeaconURL(), Wire: beacon.WireBinary}
	ctx := context.Background()

	// A healthy session opened before the panic...
	healthy, err := cl.Open(ctx, samplePayload())
	if err != nil {
		t.Fatal(err)
	}

	// ...survives a sibling session blowing up.
	bad := samplePayload()
	bad.CreativeID = "boom"
	sess, err := cl.Open(ctx, bad)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return c.tel.panics.Load() == 1 })
	_ = sess.Close()

	select {
	case <-healthy.Done():
		t.Fatal("healthy session died with the panicked one")
	default:
	}
	// The panicked session was untracked; the healthy one still is.
	waitFor(t, func() bool { return c.SessionCount() == 1 })

	// The collector still ingests normally after the panic.
	if err := healthy.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return c.Metrics.Ingested.Load() == 1 })
}

func TestIngestDedupsByNonce(t *testing.T) {
	c, st := testCollector(t)
	obs := testObservation(t, c)
	obs.Payload.Nonce = "imp-nonce-1"
	id, err := c.Ingest(obs)
	if err != nil {
		t.Fatal(err)
	}

	// The beacon reconnects: same nonce, the second connection's share
	// of the exposure and fresh interactions.
	resumed := obs
	resumed.Payload.Events = []beacon.Event{{Kind: beacon.EventClick, At: time.Second}}
	resumed.Exposure = 1500 * time.Millisecond
	id2, err := c.Ingest(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id {
		t.Fatalf("resumed ingest returned id %d, want original %d", id2, id)
	}
	if st.Len() != 1 {
		t.Fatalf("store holds %d records, want 1 (deduplicated)", st.Len())
	}
	im, _ := st.Get(id)
	if im.Exposure != 4000*time.Millisecond {
		t.Fatalf("merged exposure = %v, want 4s (2.5s + 1.5s)", im.Exposure)
	}
	if im.MouseMoves != 2 || im.Clicks != 2 {
		t.Fatalf("merged interactions = %d moves, %d clicks; want 2/2", im.MouseMoves, im.Clicks)
	}
	if got := c.tel.dedupHits.Load(); got != 1 {
		t.Fatalf("dedup hits = %d, want 1", got)
	}
	if got := c.Metrics.Ingested.Load(); got != 1 {
		t.Fatalf("ingested = %d, want 1 (merge is not a new impression)", got)
	}

	// A different nonce is a different impression.
	other := obs
	other.Payload.Nonce = "imp-nonce-2"
	if _, err := c.Ingest(other); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 2 {
		t.Fatalf("store holds %d records, want 2", st.Len())
	}
}

func TestNonceSeededFromRecoveredStore(t *testing.T) {
	// A collector built over a store that already holds a nonced record
	// (recovered from snapshot + WAL after a restart) must merge a
	// late-retrying beacon instead of double-counting it.
	c, st := testCollector(t)
	obs := testObservation(t, c)
	obs.Payload.Nonce = "pre-restart-nonce"
	id, err := c.Ingest(obs)
	if err != nil {
		t.Fatal(err)
	}

	c2, err := New(Config{
		Store:      st,
		Anonymizer: c.cfg.Anonymizer,
	})
	if err != nil {
		t.Fatal(err)
	}
	id2, err := c2.Ingest(obs)
	if err != nil {
		t.Fatal(err)
	}
	if id2 != id || st.Len() != 1 {
		t.Fatalf("post-restart ingest: id=%d len=%d, want id=%d len=1", id2, st.Len(), id)
	}
}

func TestNonceCacheRotatesGenerations(t *testing.T) {
	c, _ := testCollector(t)
	for i := 0; i < nonceCacheLimit+10; i++ {
		c.nonceRecord(fmt.Sprintf("n-%d", i), int64(i+1))
	}
	// Entries in BOTH generations resolve (internal/gen2's own test pins
	// the rotation point).
	if _, ok := c.nonceLookup("n-0"); !ok {
		t.Fatal("previous-generation nonce forgotten")
	}
	if _, ok := c.nonceLookup(fmt.Sprintf("n-%d", nonceCacheLimit+5)); !ok {
		t.Fatal("current-generation nonce missing")
	}
}

func TestAbnormalCloseStillCommitsPartialExposure(t *testing.T) {
	srv, c := newHardenedServer(t, nil)

	// Dial raw so the transport can be killed with no close frame — a
	// crashed browser, a NAT binding expiring.
	d := &wsproto.Dialer{}
	conn, _, err := d.Dial(context.Background(), srv.BeaconURL())
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.WriteText(samplePayload().Encode()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return c.SessionCount() == 1 })
	_ = conn.NetConn().Close()
	waitFor(t, func() bool { return c.Metrics.Ingested.Load() == 1 })
	if got := c.tel.partialCommits.Load(); got != 1 {
		t.Fatalf("partial commits = %d, want 1", got)
	}
	// A clean close is NOT a partial commit.
	cl := &beacon.Client{CollectorURL: srv.BeaconURL()}
	if err := cl.Report(context.Background(), samplePayload(), 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return c.Metrics.Ingested.Load() == 2 })
	if got := c.tel.partialCommits.Load(); got != 1 {
		t.Fatalf("partial commits after clean close = %d, want still 1", got)
	}
}

// waitFor polls cond for up to 5 s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition never became true")
}

func samplePayload() beacon.Payload {
	return beacon.Payload{
		CampaignID: "Research-010",
		CreativeID: "cr1",
		PageURL:    "http://www.ciencia123.es/articulo",
		UserAgent:  "Mozilla/5.0 Chrome/49.0",
	}
}

// TestRemoteAddrFastPathMatchesStringParse: taking a *net.TCPAddr's
// binary address yields exactly what parsing its String() does —
// unmapped, zone kept — and anything else still goes through the parse.
func TestRemoteAddrFastPathMatchesStringParse(t *testing.T) {
	for _, tcp := range []*net.TCPAddr{
		{IP: net.IPv4(203, 0, 113, 9), Port: 4242},          // 16-byte form of a v4 address
		{IP: net.IPv4(203, 0, 113, 9).To4(), Port: 4242},    // 4-byte form
		{IP: net.ParseIP("::ffff:198.51.100.7"), Port: 80},  // v4-mapped
		{IP: net.ParseIP("2001:db8::1"), Port: 443},         // v6
		{IP: net.ParseIP("fe80::1"), Zone: "eth0", Port: 1}, // zoned
		{IP: net.IPv4(127, 0, 0, 1), Port: 0},
		{Port: 9}, // no IP at all
	} {
		got, gotErr := wsproto.PeerAddr(tcp)
		want, wantErr := wsproto.PeerAddr(&net.UnixAddr{Name: tcp.String(), Net: "tcp"})
		if got != want || (gotErr == nil) != (wantErr == nil) {
			t.Errorf("%v: fast path (%v, %v), string parse (%v, %v)", tcp, got, gotErr, want, wantErr)
		}
		if gotErr == nil && got.Is4In6() {
			t.Errorf("%v: %v left mapped", tcp, got)
		}
	}
	if _, err := wsproto.PeerAddr(&net.UnixAddr{Name: "pipe", Net: "tcp"}); err == nil {
		t.Error("an unparseable wrapped address was accepted")
	}
}

// TestTrunkRefusesOtherVersion: every input the shared trunk receiver
// refuses (internal/trunk tests the close and its reason) is one
// trunk-proto reject at the collector, and nothing else — no other
// reject class, nothing stored.
func TestTrunkRefusesOtherVersion(t *testing.T) {
	srv, c := newHardenedServer(t, nil)
	for _, tc := range trunktest.Refusals {
		t.Run(tc.Name, func(t *testing.T) {
			before, beforeAll := c.tel.rejects.With(RejectTrunkProto).Load(), c.Metrics.Rejected.Load()
			conn, _, err := (&wsproto.Dialer{}).Dial(context.Background(), "ws://"+srv.Addr().String()+"/trunk")
			if err != nil {
				t.Fatal(err)
			}
			defer conn.NetConn().Close()
			if err := conn.WriteMessage(tc.Op, tc.Msg); err != nil {
				t.Fatal(err)
			}
			// The reject is counted before the close is written.
			if _, _, err := conn.ReadMessage(); err == nil {
				t.Fatal("refused trunk answered with a message")
			}
			if got := c.tel.rejects.With(RejectTrunkProto).Load() - before; got != 1 {
				t.Fatalf("rejects{trunk-proto} moved by %d, want 1", got)
			}
			// Nothing of the batch was acted on: no other class of reject.
			if got := c.Metrics.Rejected.Load() - beforeAll; got != 1 {
				t.Fatalf("rejects moved by %d, want 1", got)
			}
			if n := c.cfg.Store.Len(); n != 0 {
				t.Fatalf("refused trunk stored %d records", n)
			}
		})
	}
}
