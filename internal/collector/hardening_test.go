package collector

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"adaudit/internal/beacon"
	"adaudit/internal/daemon"
	"adaudit/internal/memnet"
	"adaudit/internal/store"
	"adaudit/internal/tiertest"
	"adaudit/internal/trunk"
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
	return serve(t, c, opts...), c
}

// serve serves c until the test ends.
func serve(t *testing.T, c *Collector, opts ...ServerOption) *Server {
	t.Helper()
	srv, err := NewServer(c, "127.0.0.1:0", opts...)
	if err != nil {
		t.Fatal(err)
	}
	tiertest.Serve(t, srv)
	return srv
}

// TestTextSessionKeepsNoMessage: a text payload's unescaped strings are
// substrings of its message, and the nonce is one the store keeps per
// record, in the row and the nonce index. Kept as decoded, every stored
// text impression would pin its whole message — here each carries an
// ignored 4 KiB key — so the collector copies the nonce.
func TestTextSessionKeepsNoMessage(t *testing.T) {
	const sessions = 2000
	c, st := testCollector(t)
	srv := serve(t, c)
	d := &beaconDialer{url: srv.BeaconURL()}
	send := func(i int) {
		msg := beacon.Payload{
			CampaignID: "camp", CreativeID: "cr", PageURL: "http://pub.es/p",
			UserAgent: "Mozilla/5.0 Chrome/49.0", Nonce: fmt.Sprintf("%016x", i),
		}.Encode() + "&pad=" + strings.Repeat("x", 4<<10)
		if err := d.sendRaw(context.Background(), msg); err != nil {
			t.Fatal(err)
		}
	}
	// The first session sizes the collector's address caches.
	send(0)
	tiertest.WaitFor(t, "the first session stored", func() bool { return st.Len() == 1 })
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 1; i <= sessions; i++ {
		send(i)
	}
	tiertest.WaitFor(t, "every session stored", func() bool { return st.Len() == 1+sessions })
	runtime.GC()
	runtime.ReadMemStats(&after)
	if perRec := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / sessions; perRec >= 1<<10 {
		t.Fatalf("the heap grew %d bytes per stored text session, want < 1 KiB", perRec)
	}
}

func TestIngestDedupsByNonce(t *testing.T) {
	c, st := testCollector(t)
	obs := testObservation(t, c)
	obs.Payload.Nonce = "imp-nonce-1"
	id, err := c.Ingest(obs)
	if err != nil {
		t.Fatal(err)
	}

	// The beacon reconnects: same nonce, the next leg, the second
	// connection's share of the exposure and fresh interactions.
	resumed := obs
	resumed.Payload.Leg = 1
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

	// Either leg resent — a forwarding tier's replay — changes nothing.
	for _, again := range []Observation{obs, resumed} {
		if id3, err := c.Ingest(again); err != nil || id3 != id {
			t.Fatalf("leg %d resent: id %d, err %v, want %d", again.Payload.Leg, id3, err, id)
		}
	}
	if back, _ := st.Get(id); back != im || st.Len() != 1 {
		t.Fatalf("a resent leg changed the store: %d records, %+v, want %+v", st.Len(), back, im)
	}
	if hits, dups := c.tel.dedupHits.Load(), c.tel.trunkDuplicates.Load(); hits != 1 || dups != 2 {
		t.Fatalf("after two resends: %d merges and %d replays, want 1 and 2", hits, dups)
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

// TestNonceSeededFromRecoveredStore: a collector built over a store
// recovered from its journal after a restart merges a late-retrying
// beacon's next leg into the record its first leg made, and drops a
// resend of the first leg, instead of double-counting either.
func TestNonceSeededFromRecoveredStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	wal, err := store.OpenWAL(path, store.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	c, st := testCollector(t)
	st.AttachWAL(wal)
	obs := testObservation(t, c)
	obs.Payload.Nonce = "pre-restart-nonce"
	id, err := c.Ingest(obs)
	if err != nil {
		t.Fatal(err)
	}

	rec, _, err := store.RecoverWAL(path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := New(Config{Store: rec, Anonymizer: c.cfg.Anonymizer})
	if err != nil {
		t.Fatal(err)
	}
	if id2, err := c2.Ingest(obs); err != nil || id2 != id {
		t.Fatalf("first leg resent after the restart: id %d, err %v, want %d", id2, err, id)
	}
	if back, _ := rec.Get(id); back.Exposure != obs.Exposure || rec.Len() != 1 {
		t.Fatalf("the resent first leg changed the store: %d records, exposure %v", rec.Len(), back.Exposure)
	}
	next := obs
	next.Payload.Leg = 1
	if id2, err := c2.Ingest(next); err != nil || id2 != id {
		t.Fatalf("second leg after the restart: id %d, err %v, want a merge into %d", id2, err, id)
	}
	if back, _ := rec.Get(id); back.Exposure != 2*obs.Exposure || rec.Len() != 1 {
		t.Fatalf("post-restart merge: %d records, exposure %v, want 1 and %v", rec.Len(), back.Exposure, 2*obs.Exposure)
	}
}

// TestNonceIndexHasNoWindow: a nonce is remembered however much other
// traffic comes between its legs. The collector's two-generation nonce
// cache forgot it after 65,536–131,072 other nonces, and the next leg
// became a second record.
func TestNonceIndexHasNoWindow(t *testing.T) {
	c, st := testCollector(t)
	obs := testObservation(t, c)
	obs.Payload.Nonce = "N"
	if id, err := c.Ingest(obs); err != nil || id != 1 {
		t.Fatalf("first ingest: id %d, err %v", id, err)
	}
	other := obs
	for i := 0; i < 131_073; i++ {
		other.Payload.Nonce = strconv.Itoa(i)
		if _, err := c.Ingest(other); err != nil {
			t.Fatal(err)
		}
	}
	obs.Payload.Leg = 1
	if id, err := c.Ingest(obs); err != nil || id != 1 {
		t.Fatalf("leg 1 after 131,073 other nonces: id %d, err %v, want a merge into record 1", id, err)
	}
	if first, _ := st.Get(1); first.Exposure != 2*obs.Exposure || st.Len() != 131_074 {
		t.Fatalf("record 1 holds exposure %v in a store of %d, want %v in 131,074", first.Exposure, st.Len(), 2*obs.Exposure)
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
	if err := conn.WriteText(tiertest.Payload(0).Encode()); err != nil {
		t.Fatal(err)
	}
	tiertest.WaitFor(t, "the session to be tracked", func() bool { return c.SessionCount() == 1 })
	_ = conn.NetConn().Close()
	// The partial commit is counted after the ingest returns.
	tiertest.WaitFor(t, "the partial commit", func() bool { return c.tel.partialCommits.Load() == 1 })
	if got := c.Metrics.Ingested.Load(); got != 1 {
		t.Fatalf("ingested = %d, want 1", got)
	}
	// A clean close is NOT a partial commit.
	cl := &beacon.Client{CollectorURL: srv.BeaconURL()}
	if err := cl.Report(context.Background(), tiertest.Payload(0), 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	tiertest.WaitFor(t, "the second impression", func() bool { return c.Metrics.Ingested.Load() == 2 })
	if got := c.tel.partialCommits.Load(); got != 1 {
		t.Fatalf("partial commits after clean close = %d, want still 1", got)
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

// TestDrainPastAStalledTrunk: a gateway that sends a commit and then
// stops reading leaves the collector's ack stuck on its trunk. The drain
// still closes a beacon session going-away and commits it, and returns
// when its grace runs out, counting the trunk as still open.
func TestDrainPastAStalledTrunk(t *testing.T) {
	var nw memnet.Network // unbuffered: a write blocks until the far end reads it
	ln, err := nw.Listen("collector:80")
	if err != nil {
		t.Fatal(err)
	}
	srv, c := newHardenedServer(t, nil, daemon.WithListener(ln))
	dialer := &wsproto.Dialer{NetDial: nw.Dial}
	tr, _, err := dialer.Dial(context.Background(), "ws://"+srv.Addr().String()+"/trunk")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.NetConn().Close()
	p := tiertest.Payload(0)
	p.Nonce = "stalled-trunk"
	batch := trunk.AppendFrame(nil, trunk.Frame{Type: trunk.Hello, Version: trunk.Version, GatewayID: "gw"})
	batch = trunk.AppendFrame(batch, trunk.Frame{Type: trunk.Commit, Stream: 1, RemoteIP: "203.0.113.9",
		Exposure: time.Second, Payload: string(p.EncodeBinary())})
	if err := tr.WriteMessage(wsproto.OpBinary, batch); err != nil {
		t.Fatal(err)
	}
	// Ingested, and its ack's bytes sit unread: the reply is stuck on a
	// peer that never reads, holding the trunk's write side.
	tiertest.WaitFor(t, "the trunk's commit", func() bool { return c.Metrics.Ingested.Load() == 1 })
	tiertest.WaitFor(t, "the ack to stall", func() bool { return !nw.Idle() })

	conn, _, err := dialer.Dial(context.Background(), srv.BeaconURL())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.NetConn().Close()
	for _, msg := range []string{tiertest.Payload(0).Encode(), beacon.EncodeEventUpdate(beacon.Event{Kind: beacon.EventClick, At: time.Millisecond})} {
		if err := conn.WriteText(msg); err != nil {
			t.Fatal(err)
		}
	}
	tiertest.WaitFor(t, "the update to be counted", func() bool { return c.Metrics.Events.Load() == 1 })

	drained := make(chan int, 1)
	go func() { drained <- c.sessions.Drain(time.Second) }()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, _, err = conn.ReadMessage()
	if ce, _ := err.(*wsproto.CloseError); ce == nil || *ce != (wsproto.CloseError{Code: wsproto.CloseGoingAway, Reason: "collector shutting down"}) {
		t.Fatalf("drained session ended with %v, want going-away", err)
	}
	select {
	case left := <-drained:
		if left != 1 {
			t.Fatalf("drain left %d connections open, want the stalled trunk", left)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Drain still running 5 s into a 1 s grace")
	}
	if n := c.Metrics.Ingested.Load(); n != 2 {
		t.Fatalf("ingested = %d, want the trunk's commit and the drained session's", n)
	}
	tiertest.WaitFor(t, "no session", func() bool { return c.SessionCount() == 0 })
}

// commitOverTrunk opens a trunk to srv as gateway gw, sends one batch
// of a hello and the commits, and waits for their replies: one ack per
// commit.
func commitOverTrunk(t *testing.T, srv *Server, gw string, commits ...trunk.Frame) {
	t.Helper()
	conn, _, err := (&wsproto.Dialer{}).Dial(context.Background(), "ws://"+srv.Addr().String()+"/trunk")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.NetConn().Close()
	batch := trunk.AppendFrame(nil, trunk.Frame{Type: trunk.Hello, Version: trunk.Version, GatewayID: gw})
	for _, f := range commits {
		batch = trunk.AppendFrame(batch, f)
	}
	if err := conn.WriteMessage(wsproto.OpBinary, batch); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for acked := 0; acked < len(commits); {
		_, msg, err := conn.ReadMessage()
		if err != nil {
			t.Fatalf("after %d acks: %v", acked, err)
		}
		replies, err := trunk.DecodeBatch(msg)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range replies {
			if r.Type != trunk.Ack {
				t.Fatalf("commit answered with %v %q, want an ack", r.Type, r.Reason)
			}
			acked++
		}
	}
}

// TestEdgeReplayToRestartedCollectorCountsOnce: an edge replays a
// commit whose ack it lost to a collector that has since restarted and
// recovered its journal. The replay is the same nonce and leg, so the
// recovered store drops it and the collector acks it: one record, its
// exposure counted once. Before the store kept the legs, the restarted
// collector had no memory of the stream and merged the replay a second
// time.
func TestEdgeReplayToRestartedCollectorCountsOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wal")
	wal, err := store.OpenWAL(path, store.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	c, st := testCollector(t)
	st.AttachWAL(wal)
	p := tiertest.Payload(0)
	commit := trunk.Frame{Type: trunk.Commit, Stream: 1, RemoteIP: "203.0.113.9",
		ConnectedAt: time.Now().UnixNano(), Exposure: time.Second, Payload: string(p.EncodeBinary())}
	commitOverTrunk(t, serve(t, c), "gw", commit)

	rec, _, err := store.RecoverWAL(path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := testCollector(t, func(cfg *Config) { cfg.Store = rec })
	commitOverTrunk(t, serve(t, c2), "gw", commit)
	if im, _ := rec.Get(1); rec.Len() != 1 || im.Exposure != time.Second || im.Nonce != p.Nonce {
		t.Fatalf("after the replay: %d records, record 1 %+v, want one with exposure 1s", rec.Len(), im)
	}
	if dups := c2.tel.trunkDuplicates.Load(); dups != 1 {
		t.Fatalf("replays dropped = %d, want 1", dups)
	}
}
