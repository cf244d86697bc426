package collector

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"adaudit/internal/beacon"
	"adaudit/internal/ipmeta"
	"adaudit/internal/simclock"
	"adaudit/internal/store"
	"adaudit/internal/tiertest"
	"adaudit/internal/wsproto"
)

// TestVirtualClockDrivesSessionTiming proves the satellite fix: the
// session-timing paths (exposure measurement, keepalive scheduling) run
// on the configured Clock, not the wall clock. A virtual clock anchored
// at the real present keeps transport deadlines in the real future
// while letting the test advance measured time deterministically: seven
// virtual minutes of exposure are measured in milliseconds of wall
// time, and the keepalive ticker fires exactly once per virtual
// interval.
func TestVirtualClockDrivesSessionTiming(t *testing.T) {
	vstart := time.Now()
	clk := simclock.NewVirtual(vstart)
	st := store.New()
	c, err := New(Config{
		Store:             st,
		Anonymizer:        ipmeta.NewAnonymizer([]byte("vclock")),
		KeepAliveInterval: time.Minute,
		Clock:             clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := serve(t, c)
	ctx := context.Background()

	d := &wsproto.Dialer{}
	conn, _, err := d.Dial(ctx, srv.BeaconURL())
	if err != nil {
		t.Fatal(err)
	}
	var pings atomic.Int64
	conn.SetPingHandler(func([]byte) { pings.Add(1) })
	// Service control frames like a browser: pings get their automatic
	// pongs inside ReadMessage.
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			if _, _, err := conn.ReadMessage(); err != nil {
				return
			}
		}
	}()

	payload := beacon.Payload{
		CampaignID: "vclock", CreativeID: "cr",
		PageURL: "http://pub.es/", UserAgent: "UA",
	}
	if err := conn.WriteText(payload.Encode()); err != nil {
		t.Fatal(err)
	}
	// One event update round-trips through the session loop, proving
	// runSession has taken its connectedAt reading (and started the
	// keepalive ticker) before the clock moves.
	if err := conn.WriteText(beacon.EncodeEventUpdate(beacon.Event{
		Kind: beacon.EventClick, At: time.Second,
	})); err != nil {
		t.Fatal(err)
	}
	tiertest.WaitFor(t, "the update to be counted", func() bool { return c.Metrics.Events.Load() == 1 })

	// Advance one keepalive interval at a time, waiting for the ping to
	// land before the next step: the virtual ticker channel coalesces
	// like a real one, so a single 7-minute jump would fold seven due
	// ticks into however many the keepalive goroutine drains.
	for i := 1; i <= 7; i++ {
		clk.Advance(time.Minute)
		want := int64(i)
		tiertest.WaitFor(t, "the ping", func() bool { return pings.Load() >= want })
	}
	if got := pings.Load(); got != 7 {
		t.Fatalf("pings = %d, want 7 (one per virtual minute)", got)
	}

	if err := conn.Close(wsproto.CloseNormal, "unload"); err != nil {
		t.Fatal(err)
	}
	<-readerDone
	tiertest.WaitFor(t, "the impression to land", func() bool { return st.Len() == 1 })
	im, _ := st.Get(1)
	if im.Exposure != 7*time.Minute {
		t.Fatalf("exposure = %v, want exactly 7m of virtual time", im.Exposure)
	}
	if !im.Timestamp.Equal(vstart) {
		t.Fatalf("timestamp = %v, want the virtual connect instant %v", im.Timestamp, vstart)
	}
}
