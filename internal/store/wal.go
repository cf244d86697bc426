package store

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"sync"
	"time"

	"adaudit/internal/trace"
)

// The write-ahead log makes acknowledged impressions survive a
// collector crash. Every Insert and Merge appends one binary entry (the
// row format of rowcodec.go) to the journal *before* the in-memory
// store mutates, so a daemon killed at any instant recovers, at boot,
// every record it ever acknowledged — closing the gap the periodic
// snapshot leaves (a crash used to lose everything since the last
// flush).
//
// Design points:
//
//   - Each entry is framed and checksummed, and written in a single
//     write(2) call. A final entry the file ends inside, or whose body
//     fails its checksum, therefore means a crash mid-append, never a
//     corrupt middle; replay tolerates it by truncating the tail and
//     logging a warning. Damage anywhere before it fails the replay.
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

// WAL is an append-only binary journal of store mutations. Attach one
// with Store.AttachWAL; open an existing journal at boot with
// RecoverWAL first.
type WAL struct {
	mu     sync.Mutex
	f      *os.File
	buf    []byte // the append encoder's buffer, reused under mu
	path   string
	policy SyncPolicy
	// firstDirty is when the oldest acknowledged entry not yet on disk
	// was appended, zero when the journal is clean: the WAL sync-lag
	// health signal. Only SyncGroup sets it.
	firstDirty time.Time

	// Group-commit state (SyncGroup only). seq numbers appends, which
	// hold the store's lock too, so a holder of either may read it;
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

// walEntry is one journal entry. Insert entries carry the full record
// (including its assigned ID); merge entries carry the absolute
// post-merge values so replay is idempotent. The two legs ops are the
// same entries with the record's new mask of merged legs (legs.go).
type walEntry struct {
	Op byte        // opInsert | opMerge | opInsertLegs | opMergeLegs
	Im *Impression // opInsert, opInsertLegs

	// opMerge, opMergeLegs
	ID          int64
	ExposureNS  int64
	MouseMoves  int
	Clicks      int
	VisMeasured bool
	MaxVis      float64

	Legs uint32 // opInsertLegs, opMergeLegs
}

// ErrJournalV1 marks a journal in format version 1 (JSON lines), which
// OpenWAL refuses to append to: RecoverWAL reads it, and a snapshot
// published from the recovered store supersedes it.
var ErrJournalV1 = errors.New("journal is format v1 (JSON lines); this build appends only to v2: recover it, publish a snapshot and truncate it")

// OpenWAL opens (creating if missing) the journal at path for
// appending, writing RowsHeader to an empty file. It refuses a
// non-empty file that lacks the header — a version 1 journal among
// them (ErrJournalV1). Call RecoverWAL first when the file may hold
// entries from a previous run — OpenWAL does not replay.
func OpenWAL(path string, opts WALOptions) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening wal %s: %w", path, err)
	}
	if err := startJournal(f); err != nil {
		f.Close()
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

// startJournal writes the header to an empty journal and checks that a
// non-empty one opens with it.
func startJournal(f *os.File) error {
	head := make([]byte, len(RowsHeader))
	n, err := f.ReadAt(head, 0)
	switch {
	case n == 0 && err == io.EOF:
		_, err = f.WriteString(RowsHeader)
		return err
	case string(head[:n]) == RowsHeader:
		return nil
	case head[0] == '{':
		return ErrJournalV1
	case err != nil && err != io.EOF:
		return err
	}
	return fmt.Errorf("not a journal: no %q header, and not a v1 (JSON lines) journal either", RowsHeader[:4])
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

// append writes one framed entry in a single write call. The entry is
// encoded (see rowcodec.go) into a buffer the WAL reuses across
// appends; an entry the format refuses fails before anything is
// written. Under SyncGroup the returned seq is the entry's place in the
// group-commit order: the caller must not acknowledge the mutation
// until waitDurable(seq) returns nil. SyncOS returns seq 0 (waitDurable
// treats it as already durable).
func (w *WAL) append(e *walEntry) (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	buf, err := appendFramed(w.buf[:0], e)
	if err != nil {
		return 0, fmt.Errorf("store: encoding wal entry: %w", err)
	}
	w.buf = buf
	if _, err := w.f.Write(buf); err != nil {
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

// reset truncates the journal to its header — called by
// SnapshotCompact once a snapshot has been durably published, which
// supersedes every journaled entry. SnapshotCompact holds the store's
// writer-excluding lock across the publish and the reset, so no append
// can race it.
func (w *WAL) reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("store: truncating wal: %w", err)
	}
	if _, err := w.f.WriteString(RowsHeader); err != nil {
		return fmt.Errorf("store: rewriting wal header: %w", err)
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
// journal is harmless. A torn final entry — the signature of a crash
// mid-append — is logged, dropped, and truncated away so the journal is
// append-clean afterwards; damage anywhere else fails the recovery. A
// file cut inside its header is truncated to empty. The journal may be
// in either format: version 2, or a version 1 journal (JSON lines) left
// by an older build.
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

	br := bufio.NewReaderSize(f, 64<<10)
	head, _ := br.Peek(len(RowsHeader))
	var applied int
	switch {
	case string(head) == RowsHeader:
		br.Discard(len(head))
		applied, err = s.recoverEntries(newEntryReader(br), path, logger)
	case strings.HasPrefix(RowsHeader, string(head)):
		if len(head) > 0 {
			logger.Warn("store: wal ends inside its header; emptying it", "path", path, "bytes", len(head))
			err = truncateAt(path, 0)
		}
	default:
		applied, err = s.recoverV1(br, path, logger)
	}
	if err != nil {
		return nil, 0, err
	}
	return s, applied, nil
}

// recoverEntries replays a version 2 journal.
func (s *Store) recoverEntries(r *entryReader, path string, logger *slog.Logger) (int, error) {
	applied := 0
	var e walEntry
	var row Impression
	for {
		body, err := r.next()
		if err == io.EOF {
			return applied, nil
		}
		if err == errTorn {
			logger.Warn("store: wal ends in a torn entry; dropping tail",
				"path", path, "entry", r.n+1, "offset", r.end)
			return applied, truncateAt(path, r.end)
		}
		if err != nil {
			return 0, fmt.Errorf("store: wal %s entry %d corrupt: %w", path, r.n+1, err)
		}
		if err := decodeEntry(body, &e, &row); err != nil {
			return 0, fmt.Errorf("store: wal %s entry %d corrupt: %w", path, r.n, err)
		}
		ok, err := s.applyWALEntry(&e)
		if err != nil {
			return 0, fmt.Errorf("store: wal %s entry %d: %w", path, r.n, err)
		}
		if ok {
			applied++
		}
	}
}

// walEntryV1 is one line of a version 1 journal.
type walEntryV1 struct {
	Op          string      `json:"op"` // "ins" | "mrg"
	Im          *Impression `json:"im,omitempty"`
	ID          int64       `json:"id,omitempty"`
	ExposureNS  int64       `json:"exp,omitempty"`
	MouseMoves  int         `json:"moves,omitempty"`
	Clicks      int         `json:"clicks,omitempty"`
	VisMeasured bool        `json:"vis,omitempty"`
	MaxVis      float64     `json:"maxvis,omitempty"`
}

// recoverV1 replays a version 1 journal: one JSON object per line, a
// torn final line being one without its newline.
func (s *Store) recoverV1(br *bufio.Reader, path string, logger *slog.Logger) (int, error) {
	applied := 0
	var goodOffset int64 // end of the last intact, newline-terminated entry
	for lineNo := 1; ; lineNo++ {
		line, err := br.ReadString('\n')
		if err == io.EOF {
			if len(line) > 0 {
				// Data after the last newline: a torn append. Drop it.
				logger.Warn("store: wal ends in a torn entry; dropping tail",
					"path", path, "line", lineNo, "bytes", len(line))
				return applied, truncateAt(path, goodOffset)
			}
			return applied, nil
		}
		if err != nil {
			return 0, fmt.Errorf("store: reading wal %s: %w", path, err)
		}
		var v1 walEntryV1
		if err := json.Unmarshal([]byte(line), &v1); err != nil {
			// A newline-terminated line that does not parse is real
			// corruption, not a crash artifact: appends wrote the whole
			// line atomically.
			return 0, fmt.Errorf("store: wal %s entry %d corrupt: %w", path, lineNo, err)
		}
		e := walEntry{Im: v1.Im, ID: v1.ID, ExposureNS: v1.ExposureNS, MouseMoves: v1.MouseMoves,
			Clicks: v1.Clicks, VisMeasured: v1.VisMeasured, MaxVis: v1.MaxVis}
		switch v1.Op {
		case "ins":
			e.Op = opInsert
		case "mrg":
			e.Op = opMerge
		default:
			return 0, fmt.Errorf("store: wal %s entry %d: unknown op %q", path, lineNo, v1.Op)
		}
		ok, err := s.applyWALEntry(&e)
		if err != nil {
			return 0, fmt.Errorf("store: wal %s entry %d: %w", path, lineNo, err)
		}
		if ok {
			applied++
		}
		goodOffset += int64(len(line))
	}
}

// applyWALEntry replays one journal entry; ok reports whether it
// changed the store: an insert the snapshot already holds is skipped,
// and a merge to the values (and legs) the record already has changes
// nothing.
func (s *Store) applyWALEntry(e *walEntry) (ok bool, err error) {
	switch e.Op {
	case opInsert, opInsertLegs:
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
		if _, _, err := s.commit(*e.Im, entryLegs(e), false, nil); err != nil {
			return false, err
		}
		return true, nil
	case opMerge, opMergeLegs:
		s.mu.Lock()
		defer s.mu.Unlock()
		if e.ID < 1 || e.ID > int64(s.recs.len()) {
			return false, fmt.Errorf("merge id %d out of range (store length %d)", e.ID, s.recs.len())
		}
		pos := int(e.ID - 1)
		legsMoved := false
		if e.Op == opMergeLegs {
			nonce := s.recs.at(pos).nonce
			owner, owned := s.nonces[nonce]
			if !owned || owner.pos != uint32(pos) {
				return false, fmt.Errorf("legs merged into record %d, which does not own its nonce", e.ID)
			}
			legsMoved = owner.legs != e.Legs
			s.nonces[nonce] = nonceEntry{pos: uint32(pos), legs: e.Legs}
		}
		prev := s.recs.mergeState(pos)
		next := MergePrev{
			Exposure:           time.Duration(e.ExposureNS),
			MouseMoves:         e.MouseMoves,
			Clicks:             e.Clicks,
			VisibilityMeasured: e.VisMeasured,
			MaxVisibleFraction: e.MaxVis,
		}
		if next == prev {
			return legsMoved, nil
		}
		s.recs.setMergeState(pos, next)
		s.publishMerge(pos, prev, nil)
		return true, nil
	}
	return false, fmt.Errorf("unknown op %d", e.Op)
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

// mergeState is the part of im a merge changes.
func (im *Impression) mergeState() MergePrev {
	return MergePrev{im.Exposure, im.MouseMoves, im.Clicks, im.VisibilityMeasured, im.MaxVisibleFraction}
}

// Merge folds cont into the impression with the given ID. The journal
// entry (when a WAL is attached) records the absolute post-merge
// values, keeping replay idempotent. The record's merged legs stay as
// they are: CommitLeg is the merge that counts a leg.
func (s *Store) Merge(id int64, cont Continuation) error {
	if cont.Exposure < 0 {
		return fmt.Errorf("store: negative continuation exposure %v", cont.Exposure)
	}
	s.mu.Lock()
	if id < 1 || id > int64(s.recs.len()) {
		s.mu.Unlock()
		return fmt.Errorf("store: merge target %d out of range (store length %d)", id, s.recs.len())
	}
	wal := s.wal
	walSeq, _, err := s.mergeLocked(int(id-1), cont, 0, nil)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	return wal.waitDurable(walSeq)
}

// mergeLocked folds cont into the record at pos and journals the
// absolute post-merge values; the caller holds the write lock. A
// non-zero legs is the record's new mask of merged legs, journaled with
// them; 0 leaves the mask alone.
func (s *Store) mergeLocked(pos int, cont Continuation, legs uint32, tr *trace.Trace) (walSeq int64, delivered int, err error) {
	prev := s.recs.mergeState(pos)
	next := prev
	next.Exposure += cont.Exposure
	next.MouseMoves += cont.MouseMoves
	next.Clicks += cont.Clicks
	next.VisibilityMeasured = prev.VisibilityMeasured || cont.VisibilityMeasured
	if cont.MaxVisibleFraction > prev.MaxVisibleFraction {
		next.MaxVisibleFraction = cont.MaxVisibleFraction
	}
	if s.wal != nil {
		e := walEntry{
			Op: opMerge, ID: int64(pos) + 1,
			ExposureNS:  int64(next.Exposure),
			MouseMoves:  next.MouseMoves,
			Clicks:      next.Clicks,
			VisMeasured: next.VisibilityMeasured,
			MaxVis:      next.MaxVisibleFraction,
		}
		if legs != 0 {
			e.Op, e.Legs = opMergeLegs, legs
		}
		if walSeq, err = s.wal.append(&e); err != nil {
			tr.Truncate("reject:wal-append")
			return 0, 0, err
		}
		tr.Stage(trace.StageWAL)
	}
	s.recs.setMergeState(pos, next)
	if legs != 0 {
		s.nonces[s.recs.at(pos).nonce] = nonceEntry{pos: uint32(pos), legs: legs}
	}
	tr.Stage(trace.StageCommit)
	return walSeq, s.publishMerge(pos, prev, tr), nil
}

// publishMerge publishes the merge that turned prev into the record at
// pos; the caller holds the write lock.
func (s *Store) publishMerge(pos int, prev MergePrev, tr *trace.Trace) int {
	ev := FeedEvent{Kind: FeedMerge, Prev: prev, Trace: tr}
	s.recs.load(pos, &ev.Im)
	return s.publishFeed(ev)
}
