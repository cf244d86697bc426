package collector

import (
	"context"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"adaudit/internal/beacon"
	"adaudit/internal/store"
)

// TestIngestBinaryMatchesText pins the wire-equivalence contract at the
// collector layer: the same impression delivered as a pre-encoded
// binary frame and as a decoded text Observation must produce
// byte-identical store records.
func TestIngestBinaryMatchesText(t *testing.T) {
	cText, stText := testCollector(t)
	cBin, stBin := testCollector(t)

	obs := testObservation(t, cText)
	obs.Payload.Nonce = "n-equiv-1"
	obs.Payload.Events = append(obs.Payload.Events, beacon.Event{Kind: beacon.EventVisibility, At: 4 * time.Second, Fraction: 0.75})
	if _, err := cText.Ingest(obs); err != nil {
		t.Fatal(err)
	}
	raw := obs.Payload.EncodeBinary()
	if _, err := cBin.IngestBinary(raw, obs.RemoteIP, obs.ConnectedAt, obs.Exposure); err != nil {
		t.Fatal(err)
	}

	if stText.Len() != 1 || stBin.Len() != 1 {
		t.Fatalf("store lens = %d, %d", stText.Len(), stBin.Len())
	}
	it, _ := stText.Get(1)
	ib, _ := stBin.Get(1)
	if !reflect.DeepEqual(it, ib) {
		t.Fatalf("records diverge:\n text = %+v\n  bin = %+v", it, ib)
	}
}

// TestIngestBinaryRejectsGarbage verifies a malformed binary frame is
// classified as a decode reject, same as the text path.
func TestIngestBinaryRejectsGarbage(t *testing.T) {
	c, st := testCollector(t)
	if _, err := c.IngestBinary([]byte{0xff, 0x01, 0x02}, testObservation(t, c).RemoteIP, time.Now(), time.Second); err == nil {
		t.Fatal("expected decode error")
	}
	if st.Len() != 0 {
		t.Fatalf("store has %d records after reject", st.Len())
	}
	if got := c.Metrics.Rejected.Load(); got != 1 {
		t.Fatalf("rejected metric = %d", got)
	}
}

// TestEndToEndBinaryWebSocketSession runs a full binary-wire session —
// OpBinary handshake frame, binary event updates — and checks the
// stored record matches what an identical text session produces.
func TestEndToEndBinaryWebSocketSession(t *testing.T) {
	c, st := testCollector(t)
	srv := serve(t, c)
	ctx := context.Background()

	p := beacon.Payload{
		CampaignID: "Football-010",
		CreativeID: "cr2",
		PageURL:    "http://futbolhoy999.es/cronica",
		UserAgent:  "Mozilla/5.0 Chrome/49.0",
	}
	for _, wire := range []string{beacon.WireBinary, beacon.WireText} {
		client := &beacon.Client{CollectorURL: srv.BeaconURL(), Wire: wire}
		sess, err := client.Open(ctx, p)
		if err != nil {
			t.Fatalf("%s open: %v", wire, err)
		}
		if err := sess.SendEvent(beacon.Event{Kind: beacon.EventClick, At: 40 * time.Millisecond}); err != nil {
			t.Fatalf("%s event: %v", wire, err)
		}
		if err := sess.SendEvent(beacon.Event{Kind: beacon.EventVisibility, At: 60 * time.Millisecond, Fraction: 0.5}); err != nil {
			t.Fatalf("%s event: %v", wire, err)
		}
		if err := sess.Close(); err != nil {
			t.Fatalf("%s close: %v", wire, err)
		}
	}

	deadline := time.Now().Add(3 * time.Second)
	for st.Len() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if st.Len() != 2 {
		t.Fatalf("store has %d records", st.Len())
	}
	bin, _ := st.Get(1)
	txt, _ := st.Get(2)
	if bin.Clicks != 1 || bin.CampaignID != "Football-010" || bin.Publisher != "futbolhoy999.es" {
		t.Fatalf("binary record = %+v", bin)
	}
	// Session timing differs between the runs; everything else a record
	// holds must not. A binary session decodes its payload through the
	// ingest cache, as IngestBinary does, so it is held to both the text
	// session and the direct binary path.
	withEvents := p
	withEvents.Events = []beacon.Event{
		{Kind: beacon.EventClick, At: 40 * time.Millisecond},
		{Kind: beacon.EventVisibility, At: 60 * time.Millisecond, Fraction: 0.5},
	}
	cDirect, stDirect := testCollector(t)
	if _, err := cDirect.IngestBinary(withEvents.EncodeBinary(), netip.MustParseAddr("127.0.0.1"), bin.Timestamp, bin.Exposure); err != nil {
		t.Fatal(err)
	}
	direct, _ := stDirect.Get(1)
	for name, other := range map[string]store.Impression{"text session": txt, "IngestBinary": direct} {
		other.ID, other.Timestamp, other.Exposure = bin.ID, bin.Timestamp, bin.Exposure
		if !reflect.DeepEqual(bin, other) {
			t.Fatalf("binary session and %s diverge:\n bin = %+v\n got = %+v", name, bin, other)
		}
	}
}
