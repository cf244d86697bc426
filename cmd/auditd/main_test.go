package main

import (
	"bytes"
	"context"
	"encoding/json"
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
// written since, under the group policy. The store must hold both, and
// the journal it attaches must keep the group policy.
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
	for n := 1; n <= 3; n++ {
		insert(live, n)
	}
	if err := live.SnapshotCompact(opts.snapshotPath); err != nil {
		t.Fatal(err)
	}
	for n := 4; n <= 5; n++ {
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
	// WAL keeps its policy unexported; read it the way %+v would.
	if p := reflect.ValueOf(wal).Elem().FieldByName("policy").Int(); p != int64(store.SyncGroup) {
		t.Fatalf("journal attached under policy %d, want SyncGroup", p)
	}
	// The journal is attached: a further insert survives the next boot.
	insert(st, 6)
	again, wal2, err := openStore(opts, slog.New(slog.NewTextHandler(io.Discard, nil)))
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	if again.Len() != 6 {
		t.Fatalf("second boot has %d records, want 6", again.Len())
	}
}

// TestOpenStoreUpgradesV1Journal boots on the files an older build
// left: a v1 (JSON lines) snapshot and a v1 journal — the committed
// fixture internal/store/testdata/journal_5e78ee8.wal. Every record
// must come back; the boot must leave both files in the current format
// (the snapshot republished, the journal started over), so that no file
// ever mixes the two; and a second boot must find the same store.
func TestOpenStoreUpgradesV1Journal(t *testing.T) {
	dir := t.TempDir()
	opts := daemonOptions{
		snapshotPath: filepath.Join(dir, "imps.jsonl"),
		walPath:      filepath.Join(dir, "journal.wal"),
		walSync:      "os",
	}
	journal, err := os.ReadFile(filepath.Join("..", "..", "internal", "store", "testdata", "journal_5e78ee8.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(opts.walPath, journal, 0o644); err != nil {
		t.Fatal(err)
	}
	// What the journal alone recovers to, read from a copy.
	scratch := filepath.Join(dir, "scratch.wal")
	if err := os.WriteFile(scratch, journal, 0o644); err != nil {
		t.Fatal(err)
	}
	want, _, err := store.RecoverWAL(scratch, nil, nil)
	if err != nil || want.Len() < 10 {
		t.Fatalf("the fixture recovers to %d records, err %v", want.Len(), err)
	}
	// The v1 snapshot an older build published part-way through the
	// journal's history: its first five records.
	var v1 bytes.Buffer
	for id := int64(1); id <= 5; id++ {
		im, _ := want.Get(id)
		line, err := json.Marshal(im)
		if err != nil {
			t.Fatal(err)
		}
		v1.Write(append(line, '\n'))
	}
	if err := os.WriteFile(opts.snapshotPath, v1.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	st, wal, err := openStore(opts, logger)
	if err != nil {
		t.Fatal(err)
	}
	requireSameStore(t, st, want)
	insert := store.Impression{CampaignID: "c", Publisher: "p.es", UserKey: "u", Timestamp: time.Unix(7, 0).UTC()}
	if _, err := st.Insert(insert); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{opts.snapshotPath, opts.walPath} {
		data, err := os.ReadFile(path)
		if err != nil || !bytes.HasPrefix(data, []byte(store.RowsHeader)) {
			t.Fatalf("%s after the upgrade starts %q, want %q (err %v)", path, data[:min(len(data), 8)], store.RowsHeader, err)
		}
	}

	again, wal2, err := openStore(opts, logger)
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	requireSameStore(t, again, st)
}

// requireSameStore fails unless got holds want's records, deep-equal.
func requireSameStore(t *testing.T, got, want *store.Store) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%d records, want %d", got.Len(), want.Len())
	}
	for id := int64(1); id <= int64(want.Len()); id++ {
		w, _ := want.Get(id)
		if g, _ := got.Get(id); !reflect.DeepEqual(g, w) {
			t.Fatalf("record %d:\n got %+v\nwant %+v", id, g, w)
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
