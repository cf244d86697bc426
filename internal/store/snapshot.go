package store

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// WriteSnapshot streams the store as a binary snapshot: RowsHeader, one
// insert entry per impression and one entry per conversion
// (rowcodec.go), the dataset format SnapshotCompact publishes and
// cmd/auditctl reads. (WriteCSV is the export for analysis outside
// this module.)
func (s *Store) WriteSnapshot(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.writeSnapshotLocked(w)
}

// SnapshotCompact publishes a consistent snapshot of the store at path
// and then resets the attached WAL (no WAL: the publish alone). The
// order is fixed: write path+".tmp", fsync it, close it, rename it over
// path, fsync the directory, and only then truncate the journal — so
// after a power loss at any step the snapshot on disk plus the journal
// still hold every acknowledged record. The read lock, which excludes
// writers of impressions and conversions alike, is held throughout, so
// no entry can land between the snapshot scan and the journal
// truncation. Concurrent callers run one after another. A failed
// publish leaves the journal untouched and no temp file behind.
func (s *Store) SnapshotCompact(path string) error {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := s.publishSnapshotLocked(path); err != nil {
		return err
	}
	if s.wal != nil {
		return s.wal.reset()
	}
	return nil
}

// publishSnapshotLocked is SnapshotCompact's publish: the temp file is
// durable before the rename makes it the snapshot, and the rename is
// durable before the caller truncates the journal.
func (s *Store) publishSnapshotLocked(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: publishing snapshot: %w", err)
	}
	err = s.writeSnapshotLocked(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: publishing snapshot: %w", err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("store: syncing snapshot directory: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory, making a rename inside it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeSnapshotLocked streams every record as an insert entry, with
// legs where it needs them, then every conversion, encoded into one
// reused buffer; callers hold at least a read lock (WriteSnapshot,
// SnapshotCompact).
func (s *Store) writeSnapshotLocked(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	bw.WriteString(RowsHeader) // a bufio.Writer's error sticks: it returns from the next Write or Flush
	var entry []byte
	var err error
	write := func(e *walEntry, kind string, id int64) bool {
		if entry, err = appendFramed(entry[:0], e); err != nil {
			err = fmt.Errorf("store: encoding snapshot %s %d: %w", kind, id, err)
		} else if _, err = bw.Write(entry); err != nil {
			err = fmt.Errorf("store: writing snapshot %s %d: %w", kind, id, err)
		}
		return err == nil
	}
	s.recs.each(func(im *Impression) bool {
		e := insertEntry(im, legBit(0))
		if owner, ok := s.nonces[im.Nonce]; ok && int64(owner.pos)+1 == im.ID {
			e = insertEntry(im, owner.legs)
		}
		return write(&e, "record", im.ID)
	})
	for i := 0; err == nil && i < len(s.convs); i++ {
		write(&walEntry{Op: opConversion, Conv: &s.convs[i]}, "conversion", s.convs[i].ID)
	}
	if err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("store: flushing snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot loads a snapshot into a fresh store, rebuilding the
// indexes; its entries must carry the IDs that follow, as a journal's
// do. A torn final record — the signature of a writer that crashed
// mid-snapshot — is dropped with a logged warning rather than failing
// the whole load, matching the WAL's torn-tail replay semantics; damage
// anywhere else still fails, and a file without the header is refused
// (a version 1 snapshot by ErrJournalV1).
func ReadSnapshot(r io.Reader) (*Store, error) {
	s := New()
	br := bufio.NewReaderSize(r, 64<<10)
	head, _ := br.Peek(len(RowsHeader))
	var err error
	switch {
	case string(head) == RowsHeader:
		br.Discard(len(head))
		r := newEntryReader(br)
		var torn bool
		if _, torn, err = s.replay(r, "record", true); err != nil {
			err = fmt.Errorf("store: snapshot %w", err)
		} else if torn {
			slog.Warn("store: snapshot ends in a torn record; dropping it", "records_kept", r.n)
		}
	case strings.HasPrefix(RowsHeader, string(head)):
		if len(head) > 0 {
			slog.Warn("store: snapshot ends inside its header; loading it empty")
		}
	default:
		err = fmt.Errorf("store: reading snapshot: %w", notRows(head))
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// csvHeader is the column order of WriteCSV.
var csvHeader = []string{
	"id", "campaign_id", "creative_id", "publisher", "page_url",
	"user_agent", "ip_pseudonym", "user_key", "isp", "country",
	"data_center", "timestamp", "exposure_ms", "mouse_moves", "clicks",
	"visibility_measured", "max_visible_fraction",
}

// WriteCSV exports the store for spreadsheet/pandas-style analysis.
func (s *Store) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("store: writing csv header: %w", err)
	}
	var writeErr error
	s.Visit(func(im *Impression) bool {
		rec := []string{
			strconv.FormatInt(im.ID, 10),
			im.CampaignID,
			im.CreativeID,
			im.Publisher,
			im.PageURL,
			im.UserAgent,
			im.IPPseudonym,
			im.UserKey,
			im.ISP,
			im.Country,
			im.DataCenter,
			im.Timestamp.UTC().Format(time.RFC3339Nano),
			strconv.FormatInt(im.Exposure.Milliseconds(), 10),
			strconv.Itoa(im.MouseMoves),
			strconv.Itoa(im.Clicks),
			strconv.FormatBool(im.VisibilityMeasured),
			strconv.FormatFloat(im.MaxVisibleFraction, 'f', 3, 64),
		}
		if err := cw.Write(rec); err != nil {
			writeErr = fmt.Errorf("store: writing csv record %d: %w", im.ID, err)
			return false
		}
		return true
	})
	if writeErr != nil {
		return writeErr
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("store: flushing csv: %w", err)
	}
	return nil
}
