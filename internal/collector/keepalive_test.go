package collector

import (
	"context"
	"testing"
	"time"

	"adaudit/internal/beacon"
	"adaudit/internal/ipmeta"
	"adaudit/internal/store"
	"adaudit/internal/wsproto"
)

func keepaliveCollector(t *testing.T, interval time.Duration) (*Collector, *store.Store) {
	t.Helper()
	st := store.New()
	c, err := New(Config{
		Store:             st,
		Anonymizer:        ipmeta.NewAnonymizer([]byte("ka")),
		KeepAliveInterval: interval,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, st
}

// TestKeepAliveDropsDeadPeer: a beacon that completes the handshake and
// sends its payload but then goes silent (never reads, so never pongs)
// must be dropped within ~two keep-alive intervals, not held until the
// 30-minute exposure cap.
func TestKeepAliveDropsDeadPeer(t *testing.T) {
	c, st := keepaliveCollector(t, 50*time.Millisecond)
	srv := serve(t, c)
	ctx := context.Background()

	// Dial raw (below the beacon.Client layer, which services control
	// frames like a browser would): send the payload, then go silent —
	// no reads means no pongs.
	d := &wsproto.Dialer{}
	conn, _, err := d.Dial(ctx, srv.BeaconURL())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.NetConn().Close()
	payload := beacon.Payload{
		CampaignID: "ka", CreativeID: "cr",
		PageURL: "http://pub.es/", UserAgent: "UA",
	}
	if err := conn.WriteText(payload.Encode()); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for st.Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if st.Len() != 1 {
		t.Fatal("dead peer's impression never committed")
	}
	im, _ := st.Get(1)
	// The session must have ended near 2 keep-alive intervals, far
	// below the exposure cap.
	if im.Exposure > 2*time.Second {
		t.Fatalf("dead peer held for %v", im.Exposure)
	}
}

// TestKeepAliveSustainsLivePeer: a beacon that keeps reading (and thus
// auto-ponging) survives well past two intervals. The interval is kept
// wide enough that scheduler jitter under -race cannot eat the
// two-interval pong window and drop the live peer spuriously.
func TestKeepAliveSustainsLivePeer(t *testing.T) {
	const interval = 100 * time.Millisecond
	c, st := keepaliveCollector(t, interval)
	srv := serve(t, c)
	ctx := context.Background()

	client := &beacon.Client{CollectorURL: srv.BeaconURL()}
	hold := 4 * interval
	err := client.Report(ctx, beacon.Payload{
		CampaignID: "ka", CreativeID: "cr",
		PageURL: "http://pub.es/", UserAgent: "UA",
	}, hold)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for st.Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if st.Len() != 1 {
		t.Fatal("live peer's impression never committed")
	}
	im, _ := st.Get(1)
	// The client times the hold on its own clock while the collector
	// measures exposure on the session's, so the two can disagree by a
	// few milliseconds. A keep-alive drop would have capped exposure
	// near two intervals; lived-to-the-hold is anything well beyond.
	if im.Exposure < hold-interval/2 {
		t.Fatalf("live peer dropped early: exposure %v < hold %v", im.Exposure, hold)
	}
}
