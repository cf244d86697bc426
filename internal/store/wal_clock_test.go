package store

import (
	"path/filepath"
	"testing"
	"time"

	"adaudit/internal/simclock"
)

// TestWALIntervalSyncOnVirtualClock proves the interval-sync ticker
// runs on the configured Clock: with a virtual clock the journal stays
// dirty however much wall time passes, and flushes as soon as one
// virtual interval is advanced.
func TestWALIntervalSyncOnVirtualClock(t *testing.T) {
	clk := simclock.NewVirtual(time.Time{})
	w, err := OpenWAL(filepath.Join(t.TempDir(), "clock.wal"), WALOptions{
		Policy:   SyncInterval,
		Interval: time.Minute,
		Clock:    clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	im := Impression{
		CampaignID: "c", Publisher: "p", UserKey: "u",
		Timestamp: time.Unix(1, 0),
	}
	if _, err := w.append(&walEntry{Op: "ins", Im: &im}); err != nil {
		t.Fatal(err)
	}
	dirty := func() bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.dirty
	}
	// Real time passes, virtual time does not: no flush.
	time.Sleep(20 * time.Millisecond)
	if !dirty() {
		t.Fatal("journal flushed without the virtual interval elapsing")
	}
	clk.Advance(time.Minute)
	deadline := time.Now().Add(5 * time.Second)
	for dirty() {
		if time.Now().After(deadline) {
			t.Fatal("journal never flushed after advancing one interval")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
