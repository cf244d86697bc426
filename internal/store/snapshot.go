package store

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// WriteSnapshot streams the store as a binary snapshot: RowsHeader and
// one insert entry per impression (rowcodec.go), the dataset format
// SnapshotCompact publishes and cmd/auditctl reads. (WriteCSV is the
// export for analysis outside this module.)
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
// writers, is held throughout, so no insert can land between the
// snapshot scan and the journal truncation. Concurrent callers run one
// after another. A failed publish leaves the journal untouched and no
// temp file behind.
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
// legs where it needs them, encoded into one reused buffer; callers
// hold at least a read lock (WriteSnapshot, SnapshotCompact).
func (s *Store) writeSnapshotLocked(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	bw.WriteString(RowsHeader) // a bufio.Writer's error sticks: it returns from the next Write or Flush
	var entry []byte
	var err error
	s.recs.each(func(im *Impression) bool {
		e := insertEntry(im, legBit(0))
		if owner, ok := s.nonces[im.Nonce]; ok && int64(owner.pos)+1 == im.ID {
			e = insertEntry(im, owner.legs)
		}
		if entry, err = appendFramed(entry[:0], &e); err != nil {
			err = fmt.Errorf("store: encoding snapshot record %d: %w", im.ID, err)
			return false
		}
		if _, err = bw.Write(entry); err != nil {
			err = fmt.Errorf("store: writing snapshot record %d: %w", im.ID, err)
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("store: flushing snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot loads a snapshot into a fresh store: format version 2,
// or a version 1 snapshot (JSON lines) left by an older build. IDs are
// reassigned in file order; the index is rebuilt. A torn final record —
// the signature of a writer that crashed mid-snapshot — is dropped with
// a logged warning rather than failing the whole load, matching the
// WAL's torn-tail replay semantics; damage anywhere else still fails.
func ReadSnapshot(r io.Reader) (*Store, error) {
	s := New()
	br := bufio.NewReaderSize(r, 64<<10)
	head, _ := br.Peek(len(RowsHeader))
	var err error
	switch {
	case string(head) == RowsHeader:
		br.Discard(len(head))
		err = s.readEntries(newEntryReader(br))
	case len(head) > 0 && strings.HasPrefix(RowsHeader, string(head)):
		slog.Warn("store: snapshot ends inside its header; loading it empty")
	default:
		err = s.readV1(br)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// readEntries loads the rows of a version 2 snapshot.
func (s *Store) readEntries(r *entryReader) error {
	var e walEntry
	var row Impression
	for {
		body, err := r.next()
		if err == io.EOF {
			return nil
		}
		if err == errTorn {
			slog.Warn("store: snapshot ends in a torn record; dropping it", "records_kept", r.n)
			return nil
		}
		if err != nil {
			return fmt.Errorf("store: snapshot record %d: %w", r.n+1, err)
		}
		err = decodeEntry(body, &e, &row)
		if err == nil && e.Op != opInsert && e.Op != opInsertLegs {
			err = fmt.Errorf("op %d is not a row", e.Op)
		}
		if err == nil {
			_, _, err = s.commit(row, entryLegs(&e), false, nil)
		}
		if err != nil {
			return fmt.Errorf("store: snapshot record %d: %w", r.n, err)
		}
	}
}

// readV1 loads the records of a version 1 snapshot: one JSON object
// per line.
func (s *Store) readV1(r io.Reader) error {
	dec := json.NewDecoder(r)
	for line := 1; ; line++ {
		var im Impression
		err := dec.Decode(&im)
		if err == io.EOF {
			break
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			slog.Warn("store: snapshot ends in a truncated record; dropping it",
				"records_kept", s.Len())
			break
		}
		if err != nil {
			return fmt.Errorf("store: decoding snapshot record %d: %w", line, err)
		}
		if _, err := s.Insert(im); err != nil {
			return fmt.Errorf("store: snapshot record %d: %w", line, err)
		}
	}
	return nil
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
