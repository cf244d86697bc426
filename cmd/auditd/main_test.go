package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"adaudit/internal/beacon"
	"adaudit/internal/store"
)

// TestOpenStoreRecoversSnapshotAndGroupJournal boots the -wal path the
// daemon takes after a crash: a published snapshot plus the journal
// written since, under the group policy, each holding impressions and
// conversions. The store must hold both, and the journal it attaches
// must keep the group policy.
func TestOpenStoreRecoversSnapshotAndGroupJournal(t *testing.T) {
	dir := t.TempDir()
	opts := daemonOptions{
		snapshotPath: filepath.Join(dir, "imps.jsonl"),
		walPath:      filepath.Join(dir, "journal.wal"),
		walSync:      "group",
	}
	prev, err := store.OpenWAL(opts.walPath, store.WALOptions{Policy: store.SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	live := store.New()
	live.AttachWAL(prev)
	insert := func(st *store.Store, n int) {
		t.Helper()
		if _, err := st.Insert(store.Impression{
			CampaignID: "c", Publisher: "p.es", PageURL: "http://p.es/",
			UserKey: fmt.Sprintf("u%d", n), Timestamp: time.Unix(int64(n), 0).UTC(), Exposure: time.Second,
		}); err != nil {
			t.Fatal(err)
		}
	}
	convert := func(st *store.Store, n int) {
		t.Helper()
		if _, err := st.InsertConversion(store.Conversion{
			CampaignID: "c", UserKey: fmt.Sprintf("u%d", n), Action: "purchase", ValueCents: int64(100 * n),
			Timestamp: time.Unix(int64(n), 0).In(time.FixedZone("", 1800*n)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for n := 1; n <= 3; n++ {
		insert(live, n)
		convert(live, n)
	}
	if err := live.SnapshotCompact(opts.snapshotPath); err != nil {
		t.Fatal(err)
	}
	for n := 4; n <= 5; n++ {
		convert(live, n)
		insert(live, n)
	}
	if fi, err := os.Stat(opts.walPath); err != nil || fi.Size() == 0 {
		t.Fatalf("journal after the snapshot is empty: %v, %v", fi, err)
	}
	if err := prev.Close(); err != nil {
		t.Fatal(err)
	}

	st, wal, err := openStore(opts, slog.New(slog.NewTextHandler(io.Discard, nil)))
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	if st.Len() != live.Len() {
		t.Fatalf("booted with %d records, want %d", st.Len(), live.Len())
	}
	for id := int64(1); id <= int64(live.Len()); id++ {
		want, _ := live.Get(id)
		if got, _ := st.Get(id); got != want {
			t.Fatalf("record %d: got %+v, want %+v", id, got, want)
		}
	}
	requireSameConversions(t, st, live)
	// WAL keeps its policy unexported; read it the way %+v would.
	if p := reflect.ValueOf(wal).Elem().FieldByName("policy").Int(); p != int64(store.SyncGroup) {
		t.Fatalf("journal attached under policy %d, want SyncGroup", p)
	}
	// The journal is attached: a further insert and conversion survive
	// the next boot.
	insert(st, 6)
	convert(st, 6)
	again, wal2, err := openStore(opts, slog.New(slog.NewTextHandler(io.Discard, nil)))
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	if again.Len() != 6 {
		t.Fatalf("second boot has %d records, want 6", again.Len())
	}
	requireSameConversions(t, again, st)
}

// requireSameConversions fails unless got holds want's conversions, ID
// for ID, field for field, and each timestamp Equal.
func requireSameConversions(t *testing.T, got, want *store.Store) {
	t.Helper()
	a, b := want.Conversions(""), got.Conversions("")
	if len(a) != len(b) {
		t.Fatalf("%d conversions, want %d", len(b), len(a))
	}
	for i := range a {
		if !b[i].Timestamp.Equal(a[i].Timestamp) {
			t.Fatalf("conversion %d at %v, want %v", a[i].ID, b[i].Timestamp, a[i].Timestamp)
		}
		if b[i].Timestamp = a[i].Timestamp; b[i] != a[i] {
			t.Fatalf("conversion %d:\n got %+v\nwant %+v", a[i].ID, b[i], a[i])
		}
	}
}

// TestOpenStoreRefusesV1Journal boots on the files a build that wrote
// format v1 (JSON lines) left: the committed journal fixture
// internal/store/testdata/journal_5e78ee8.wal, and a v1 snapshot. This
// build reads no v1: the boot must fail naming it (store.ErrJournalV1),
// whichever of the two files is v1, and leave both byte for byte as
// they were, so that a build which still upgrades v1 can boot them.
func TestOpenStoreRefusesV1Journal(t *testing.T) {
	journal, err := os.ReadFile(filepath.Join("..", "..", "internal", "store", "testdata", "journal_5e78ee8.wal"))
	if err != nil {
		t.Fatal(err)
	}
	snapshot, err := json.Marshal(store.Impression{ID: 1, CampaignID: "c", Publisher: "p.es", UserKey: "u",
		Timestamp: time.Unix(7, 0).UTC()})
	if err != nil {
		t.Fatal(err)
	}
	snapshot = append(snapshot, '\n')
	for name, files := range map[string]struct{ snapshot, journal []byte }{
		"v1 journal":              {nil, journal},
		"v1 snapshot":             {snapshot, []byte(store.RowsHeader)},
		"v1 snapshot and journal": {snapshot, journal},
	} {
		dir := t.TempDir()
		opts := daemonOptions{
			snapshotPath: filepath.Join(dir, "imps.jsonl"),
			walPath:      filepath.Join(dir, "journal.wal"),
			walSync:      "os",
		}
		want := map[string][]byte{opts.walPath: files.journal}
		if files.snapshot != nil {
			want[opts.snapshotPath] = files.snapshot
		}
		for path, data := range want {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		st, wal, err := openStore(opts, slog.New(slog.NewTextHandler(io.Discard, nil)))
		if !errors.Is(err, store.ErrJournalV1) {
			if wal != nil {
				wal.Close()
			}
			t.Fatalf("%s: booted %v with err %v, want store.ErrJournalV1", name, st, err)
		}
		for path, data := range want {
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("%s: the refused boot changed %s (err %v)", name, filepath.Base(path), err)
			}
		}
		if _, err := os.Stat(opts.snapshotPath + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("%s: the refused boot began a snapshot", name)
		}
	}
}

// TestOpenStoreRefusesRemovedSyncPolicies: a deployment still passing
// a removed -wal-sync value must fail at boot, told the two it may use,
// before any journal is opened.
func TestOpenStoreRefusesRemovedSyncPolicies(t *testing.T) {
	for _, policy := range []string{"always", "interval"} {
		dir := t.TempDir()
		opts := daemonOptions{
			snapshotPath: filepath.Join(dir, "imps.jsonl"),
			walPath:      filepath.Join(dir, "journal.wal"),
			walSync:      policy,
		}
		_, _, err := openStore(opts, slog.New(slog.NewTextHandler(io.Discard, nil)))
		if err == nil || !strings.Contains(err.Error(), "os") || !strings.Contains(err.Error(), "group") {
			t.Fatalf("-wal-sync=%s: err %v, want a refusal naming os and group", policy, err)
		}
		if _, err := os.Stat(opts.walPath); !os.IsNotExist(err) {
			t.Fatalf("-wal-sync=%s: journal created despite the refusal", policy)
		}
	}
}

func TestDaemonEndToEnd(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "imps.jsonl")
	ctx, cancel := context.WithCancel(context.Background())

	out := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, daemonOptions{
			listen:       "127.0.0.1:0",
			snapshotPath: snap,
			secret:       "test-secret",
			printScript:  "demo:creative-1",
		}, out)
	}()

	// The daemon prints the beacon script once the listener is up; poll
	// for the endpoint URL it embeds.
	var beaconURL string
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if m := wsURLRe.FindString(out.String()); m != "" {
			beaconURL = m
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if beaconURL == "" {
		cancel()
		t.Fatalf("beacon URL never printed; output: %s", out.String())
	}

	// Report one impression over a live WebSocket.
	client := &beacon.Client{CollectorURL: beaconURL}
	p := beacon.Payload{
		CampaignID: "demo", CreativeID: "creative-1",
		PageURL:   "http://publisher.example/page",
		UserAgent: "Mozilla/5.0 Chrome/49.0",
	}
	if err := client.Report(ctx, p, 30*time.Millisecond); err != nil {
		cancel()
		t.Fatal(err)
	}

	// Shut down; the final snapshot must contain the impression.
	time.Sleep(50 * time.Millisecond) // let the async commit land
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	f, err := os.Open(snap)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := store.ReadSnapshot(f)
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 1 {
		t.Fatalf("snapshot has %d records", st.Len())
	}
	im, _ := st.Get(1)
	if im.CampaignID != "demo" || im.Publisher != "publisher.example" {
		t.Fatalf("record = %+v", im)
	}
}

var wsURLRe = regexp.MustCompile(`ws://[0-9.]+:[0-9]+/beacon`)

// syncBuffer is a goroutine-safe bytes.Buffer for capturing the
// daemon's output while it runs.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
