package store

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sync"
	"time"

	"adaudit/internal/trace"
)

// The write-ahead log makes acknowledged impressions survive a
// collector crash. Every Insert and Merge appends one JSON line to the
// journal *before* the in-memory store mutates, so a daemon killed at
// any instant recovers, at boot, every record it ever acknowledged —
// closing the gap the periodic snapshot leaves (a crash used to lose
// everything since the last flush).
//
// Design points:
//
//   - One entry per line, written in a single write(2) call including
//     the trailing newline. A torn final line therefore always means a
//     crash mid-append, never a corrupt middle; replay tolerates it by
//     truncating the tail and logging a warning.
//   - Merge entries carry the absolute post-merge values (not deltas),
//     so replaying a WAL over a snapshot that already contains any
//     prefix of it is idempotent. That makes the compaction race
//     windows (crash between snapshot rename and journal reset) safe.
//   - Durability is one of two policies. SyncOS leaves flushing to the
//     kernel: entries reach the page cache in the append call itself,
//     so a process crash loses nothing and a power loss loses what the
//     kernel had not yet written. SyncGroup makes every acknowledged
//     impression survive power loss: each commit waits, outside the
//     store lock, for a shared fsync that covers its entry.
//   - Store.SnapshotCompact is the only way the journal shrinks. It
//     publishes the snapshot durably (temp file, fsync, rename, fsync
//     of the directory) before it truncates the journal, so at every
//     instant the snapshot plus the journal hold every acknowledged
//     record.

// SyncPolicy says when the WAL calls fsync.
type SyncPolicy int

const (
	// SyncOS never fsyncs explicitly: every append still reaches the
	// kernel synchronously (surviving a process crash), and the OS
	// flushes to disk on its own schedule. The default.
	SyncOS SyncPolicy = iota
	// SyncGroup batches fsyncs across concurrently-committing sessions:
	// an append enqueues the entry and returns, and the commit then
	// waits — outside the store lock — for a shared group fsync that
	// covers it. Every acknowledged impression is durable, at a fraction
	// of the fsync count: all appends that land while one fsync is in
	// flight are covered by the next, so the disk sees one flush per
	// batch, not per impression.
	SyncGroup
)

// ParseSyncPolicy maps the -wal-sync flag values onto a SyncPolicy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "os", "":
		return SyncOS, nil
	case "group":
		return SyncGroup, nil
	}
	return 0, fmt.Errorf("store: unknown wal sync policy %q (want os or group)", s)
}

// WALOptions tune the journal.
type WALOptions struct {
	// Policy is the fsync policy (default SyncOS).
	Policy SyncPolicy
}

// WAL is an append-only JSON-lines journal of store mutations. Attach
// one with Store.AttachWAL; open an existing journal at boot with
// RecoverWAL first.
type WAL struct {
	mu     sync.Mutex
	f      *os.File
	line   []byte // the append encoder's buffer, reused under mu
	path   string
	policy SyncPolicy
	// firstDirty is when the oldest acknowledged entry not yet on disk
	// was appended, zero when the journal is clean: the WAL sync-lag
	// health signal. Only SyncGroup sets it.
	firstDirty time.Time

	// Group-commit state (SyncGroup only). seq numbers appends;
	// syncedSeq is the highest seq a completed fsync covers. Committers
	// block on synced until their seq is covered; the flusher fsyncs
	// outside mu so appends keep landing while the disk works.
	seq       int64
	syncedSeq int64
	syncErr   error // sticky: first group-fsync failure fails all later waits
	closed    bool
	synced    *sync.Cond    // on mu; broadcast when syncedSeq, syncErr or closed change
	wake      chan struct{} // cap 1; nudges the group flusher

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// walEntry is one journal line. Insert entries carry the full record
// (including its assigned ID); merge entries carry the absolute
// post-merge values so replay is idempotent.
type walEntry struct {
	Op string      `json:"op"` // "ins" | "mrg"
	Im *Impression `json:"im,omitempty"`

	ID          int64   `json:"id,omitempty"`
	ExposureNS  int64   `json:"exp,omitempty"`
	MouseMoves  int     `json:"moves,omitempty"`
	Clicks      int     `json:"clicks,omitempty"`
	VisMeasured bool    `json:"vis,omitempty"`
	MaxVis      float64 `json:"maxvis,omitempty"`
}

// OpenWAL opens (creating if missing) the journal at path for
// appending. Call RecoverWAL first when the file may hold entries from
// a previous run — OpenWAL does not replay.
func OpenWAL(path string, opts WALOptions) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening wal %s: %w", path, err)
	}
	w := &WAL{
		f:      f,
		path:   path,
		policy: opts.Policy,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if w.policy == SyncGroup {
		w.synced = sync.NewCond(&w.mu)
		w.wake = make(chan struct{}, 1)
		go w.groupLoop()
	} else {
		close(w.done)
	}
	return w, nil
}

// Path returns the journal's file path.
func (w *WAL) Path() string { return w.path }

// groupLoop is the SyncGroup flusher: woken by the first append of a
// batch, it fsyncs once for every entry appended so far and releases
// their waiting committers.
func (w *WAL) groupLoop() {
	defer close(w.done)
	for {
		select {
		case <-w.stop:
			// Final flush so committers racing Close are released with
			// their entries durable, not with an error.
			w.groupSync()
			return
		case <-w.wake:
			w.groupSync()
		}
	}
}

// groupSync performs one group fsync: snapshot the high-water seq,
// flush outside mu (appends keep landing meanwhile — they form the
// next batch), then publish coverage and wake the waiters.
func (w *WAL) groupSync() {
	w.mu.Lock()
	pending := w.seq
	if pending == w.syncedSeq {
		w.mu.Unlock()
		return
	}
	w.mu.Unlock()
	err := w.f.Sync()
	w.mu.Lock()
	if err != nil && w.syncErr == nil {
		w.syncErr = err
	}
	if err == nil && pending > w.syncedSeq {
		w.syncedSeq = pending
		if w.syncedSeq == w.seq {
			w.firstDirty = time.Time{}
		}
	}
	w.synced.Broadcast()
	w.mu.Unlock()
}

// append writes one entry as a single line in a single write call. The
// line is encoded (see rowjson.go) into a buffer the WAL reuses across
// appends; an entry with no JSON form fails before anything is written.
// Under SyncGroup the returned seq is the entry's place in the
// group-commit order: the caller must not acknowledge the mutation
// until waitDurable(seq) returns nil. SyncOS returns seq 0 (waitDurable
// treats it as already durable).
func (w *WAL) append(e *walEntry) (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	line, err := appendEntry(w.line[:0], e)
	if err != nil {
		return 0, fmt.Errorf("store: encoding wal entry: %w", err)
	}
	w.line = line
	if _, err := w.f.Write(line); err != nil {
		return 0, fmt.Errorf("store: appending wal entry: %w", err)
	}
	if w.policy != SyncGroup {
		return 0, nil
	}
	w.seq++
	if w.firstDirty.IsZero() {
		w.firstDirty = time.Now()
	}
	select {
	case w.wake <- struct{}{}:
	default: // flusher already has a wakeup pending
	}
	return w.seq, nil
}

// waitDurable blocks until the group fsync covers seq — the second
// half of a SyncGroup commit, called after the store lock held across
// append has been released (waiting under that lock would serialise
// commits and defeat the batching). A nil WAL, SyncOS or seq 0 return
// immediately. An error means the entry may not be on disk: the caller
// must not acknowledge upstream (the in-memory mutation stands — a
// replay against it deduplicates).
func (w *WAL) waitDurable(seq int64) error {
	if w == nil || w.policy != SyncGroup || seq == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.syncedSeq < seq && w.syncErr == nil && !w.closed {
		w.synced.Wait()
	}
	if w.syncedSeq >= seq {
		return nil
	}
	if w.syncErr != nil {
		return fmt.Errorf("store: group wal sync: %w", w.syncErr)
	}
	return errors.New("store: wal closed before group sync covered entry")
}

// DirtyDuration reports how long acknowledged journal entries have
// been waiting for an fsync: the wall-clock age of the oldest unsynced
// append, or 0 when the journal is clean. Only SyncGroup accumulates
// dirtiness, between an append and the group fsync that covers it
// (SyncOS delegates flushing to the kernel), so this is the health
// signal that the group flusher is alive and keeping up.
func (w *WAL) DirtyDuration() time.Duration {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.firstDirty.IsZero() {
		return 0
	}
	return time.Since(w.firstDirty)
}

// publishSyncedLocked marks every appended entry durable and releases
// group-commit waiters; callers must hold mu and have fsynced (or
// truncated) the file first.
func (w *WAL) publishSyncedLocked() {
	w.firstDirty = time.Time{}
	if w.synced == nil {
		return
	}
	w.syncedSeq = w.seq
	w.synced.Broadcast()
}

// reset truncates the journal to empty — called by SnapshotCompact
// once a snapshot has been durably published, which supersedes every
// journaled entry. SnapshotCompact holds the store's writer-excluding
// lock across the publish and the reset, so no append can race it.
func (w *WAL) reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("store: truncating wal: %w", err)
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: rewinding wal: %w", err)
	}
	// Truncation supersedes every journaled entry, so any group-commit
	// waiter's entry is moot: the snapshot that triggered the reset
	// already covers it durably.
	w.publishSyncedLocked()
	return w.f.Sync()
}

// Close flushes and closes the journal. The group flusher (if any)
// performs a final fsync before exiting, so committers waiting in
// waitDurable are released durable; any append racing past that final
// flush is still synced here before the file closes, and its waiter is
// released by the closed broadcast.
func (w *WAL) Close() error {
	w.stopOnce.Do(func() { close(w.stop) })
	<-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Sync(); err == nil {
		w.publishSyncedLocked()
	}
	w.closed = true
	if w.synced != nil {
		w.synced.Broadcast()
	}
	return w.f.Close()
}

// AttachWAL makes every subsequent Insert and Merge journal itself to w
// before mutating the store. Attach before the store starts taking
// traffic; a nil w detaches.
func (s *Store) AttachWAL(w *WAL) {
	s.mu.Lock()
	s.wal = w
	s.mu.Unlock()
}

// WALDirtyDuration reports the attached journal's sync lag (see
// WAL.DirtyDuration); 0 with no WAL attached.
func (s *Store) WALDirtyDuration() time.Duration {
	s.mu.RLock()
	w := s.wal
	s.mu.RUnlock()
	return w.DirtyDuration()
}

// RecoverWAL replays the journal at path into base (nil starts an empty
// store) and returns the recovered store plus the number of entries
// applied. base is typically the last published snapshot; insert
// entries the snapshot already contains are skipped and merge entries
// re-apply idempotently, so any prefix overlap between snapshot and
// journal is harmless. A torn final line — the signature of a crash
// mid-append — is logged, dropped, and truncated away so the journal is
// append-clean afterwards; corruption anywhere else fails the recovery.
func RecoverWAL(path string, base *Store, logger *slog.Logger) (*Store, int, error) {
	if logger == nil {
		logger = slog.Default()
	}
	s := base
	if s == nil {
		s = New()
	}
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return s, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("store: opening wal %s: %w", path, err)
	}
	defer f.Close()

	br := bufio.NewReader(f)
	applied := 0
	var goodOffset int64 // end of the last intact, newline-terminated entry
	for lineNo := 1; ; lineNo++ {
		line, err := br.ReadString('\n')
		if err == io.EOF {
			if len(line) > 0 {
				// Data after the last newline: a torn append. Drop it.
				logger.Warn("store: wal ends in a torn entry; dropping tail",
					"path", path, "line", lineNo, "bytes", len(line))
				if err := truncateAt(path, goodOffset); err != nil {
					return nil, 0, err
				}
			}
			break
		}
		if err != nil {
			return nil, 0, fmt.Errorf("store: reading wal %s: %w", path, err)
		}
		var e walEntry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			// A newline-terminated line that does not parse is real
			// corruption, not a crash artifact: appends write the whole
			// line atomically.
			return nil, 0, fmt.Errorf("store: wal %s entry %d corrupt: %w", path, lineNo, err)
		}
		ok, err := s.applyWALEntry(e)
		if err != nil {
			return nil, 0, fmt.Errorf("store: wal %s entry %d: %w", path, lineNo, err)
		}
		if ok {
			applied++
		}
		goodOffset += int64(len(line))
	}
	return s, applied, nil
}

// applyWALEntry replays one journal entry; ok reports whether it
// changed the store (snapshot-covered inserts are skipped).
func (s *Store) applyWALEntry(e walEntry) (ok bool, err error) {
	switch e.Op {
	case "ins":
		if e.Im == nil {
			return false, fmt.Errorf("insert entry missing record")
		}
		s.mu.Lock()
		have := int64(s.recs.len())
		s.mu.Unlock()
		if e.Im.ID <= have {
			// Already covered by the snapshot the journal was replayed
			// over (crash landed between snapshot publish and reset).
			return false, nil
		}
		if e.Im.ID != have+1 {
			return false, fmt.Errorf("insert id %d does not follow store length %d", e.Im.ID, have)
		}
		if _, err := s.Insert(*e.Im); err != nil {
			return false, err
		}
		return true, nil
	case "mrg":
		s.mu.Lock()
		defer s.mu.Unlock()
		if e.ID < 1 || e.ID > int64(s.recs.len()) {
			return false, fmt.Errorf("merge id %d out of range (store length %d)", e.ID, s.recs.len())
		}
		im := s.recs.at(int(e.ID - 1))
		prev := MergePrev{
			Exposure:           im.Exposure,
			MouseMoves:         im.MouseMoves,
			Clicks:             im.Clicks,
			VisibilityMeasured: im.VisibilityMeasured,
			MaxVisibleFraction: im.MaxVisibleFraction,
		}
		im.Exposure = time.Duration(e.ExposureNS)
		im.MouseMoves = e.MouseMoves
		im.Clicks = e.Clicks
		im.VisibilityMeasured = e.VisMeasured
		im.MaxVisibleFraction = e.MaxVis
		s.publishFeed(FeedEvent{Kind: FeedMerge, Im: *im, Prev: prev})
		return true, nil
	}
	return false, fmt.Errorf("unknown op %q", e.Op)
}

// truncateAt chops the file to size off, removing a torn tail.
func truncateAt(path string, off int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("store: reopening wal for truncation: %w", err)
	}
	defer f.Close()
	if err := f.Truncate(off); err != nil {
		return fmt.Errorf("store: truncating torn wal tail: %w", err)
	}
	return f.Sync()
}

// Continuation is the contribution of a reconnected beacon session to
// an impression it resumes: the extra connection time and the
// interactions observed on the new connection. Store.Merge folds it
// into the original record instead of double-counting the impression.
type Continuation struct {
	// Exposure is the resumed connection's duration, added to the
	// record's exposure (the paper measures exposure as total
	// connection time, however the connections end).
	Exposure time.Duration
	// MouseMoves and Clicks are interaction counts from the resumed
	// session, added to the record's counts.
	MouseMoves int
	Clicks     int
	// VisibilityMeasured / MaxVisibleFraction extend the record's
	// visibility measurement (logical-or / max).
	VisibilityMeasured bool
	MaxVisibleFraction float64
}

// Merge folds cont into the impression with the given ID — the
// collector's dedup path for a beacon that reconnected mid-exposure
// with the same nonce. The journal entry (when a WAL is attached)
// records the absolute post-merge values, keeping replay idempotent.
func (s *Store) Merge(id int64, cont Continuation) error {
	return s.MergeTraced(id, cont, nil)
}

// MergeTraced is Merge carrying the resumed session's pipeline trace
// (nil when unsampled). A reconnected beacon resends the original
// trace ID, so the merge leg's trace shares the ID of the insert
// leg's — the flight recorder then holds one trace per session leg of
// the impression. Stamping and finishing mirror InsertTraced.
func (s *Store) MergeTraced(id int64, cont Continuation, tr *trace.Trace) error {
	if cont.Exposure < 0 {
		tr.Truncate("reject:merge-validate")
		return fmt.Errorf("store: negative continuation exposure %v", cont.Exposure)
	}
	s.mu.Lock()
	if id < 1 || id > int64(s.recs.len()) {
		s.mu.Unlock()
		tr.Truncate("reject:merge-target")
		return fmt.Errorf("store: merge target %d out of range (store length %d)", id, s.recs.len())
	}
	im := s.recs.at(int(id - 1))
	prev := MergePrev{
		Exposure:           im.Exposure,
		MouseMoves:         im.MouseMoves,
		Clicks:             im.Clicks,
		VisibilityMeasured: im.VisibilityMeasured,
		MaxVisibleFraction: im.MaxVisibleFraction,
	}
	exp := im.Exposure + cont.Exposure
	moves := im.MouseMoves + cont.MouseMoves
	clicks := im.Clicks + cont.Clicks
	vis := im.VisibilityMeasured || cont.VisibilityMeasured
	maxVis := im.MaxVisibleFraction
	if cont.MaxVisibleFraction > maxVis {
		maxVis = cont.MaxVisibleFraction
	}
	wal := s.wal
	var walSeq int64
	if wal != nil {
		seq, err := wal.append(&walEntry{
			Op: "mrg", ID: id,
			ExposureNS:  int64(exp),
			MouseMoves:  moves,
			Clicks:      clicks,
			VisMeasured: vis,
			MaxVis:      maxVis,
		})
		if err != nil {
			s.mu.Unlock()
			tr.Truncate("reject:wal-append")
			return err
		}
		walSeq = seq
		tr.Stage(trace.StageWAL)
	}
	im.Exposure = exp
	im.MouseMoves = moves
	im.Clicks = clicks
	im.VisibilityMeasured = vis
	im.MaxVisibleFraction = maxVis
	tr.Stage(trace.StageCommit)
	delivered := s.publishFeed(FeedEvent{Kind: FeedMerge, Im: *im, Prev: prev, Trace: tr})
	s.mu.Unlock()
	// Same group-commit rendezvous as InsertTraced: wait outside the
	// store lock; an error means don't ack, the merged state stands.
	if err := wal.waitDurable(walSeq); err != nil {
		return err
	}
	if delivered == 0 {
		tr.Finish()
	}
	return nil
}
