package store

import (
	"fmt"
	"time"

	"adaudit/internal/trace"
)

// Exactly-once is the store's to keep. A beacon reports an impression
// over one or more connections (legs) under one nonce, and a gateway
// replays any leg it was not told is durable. The nonce index holds the
// record of each nonce and a mask of its merged legs — a mask, as legs
// arrive out of order — so a leg already merged is a replay that changes
// nothing. It is exact, 8 bytes of value per nonce, and rebuilt by
// recovery from the rows and the legs ops (rowcodec.go).

// maxLegs is the width of the mask (beacon.MaxLegs on the wire).
const maxLegs = 32

// nonceEntry is the record that owns a nonce, by log position, and its
// merged legs, bit k for leg k.
type nonceEntry struct {
	pos, legs uint32
}

func legBit(leg uint8) uint32 { return 1 << leg }

// insertEntry is the journal entry of im inserted with legs merged.
func insertEntry(im *Impression, legs uint32) walEntry {
	if legs == legBit(0) {
		return walEntry{Op: opInsert, Im: im}
	}
	return walEntry{Op: opInsertLegs, Im: im, Legs: legs}
}

// entryLegs is the mask a journaled insert gives the record.
func entryLegs(e *walEntry) uint32 {
	if e.Op == opInsertLegs {
		return e.Legs
	}
	return legBit(0)
}

// LegOutcome is what CommitLeg did with a leg.
type LegOutcome uint8

const (
	LegInserted LegOutcome = iota // the nonce's first leg (or no nonce): a new record
	LegMerged                     // a new leg of the record owning the nonce
	LegReplayed                   // a leg the record had merged: nothing changed
)

// CommitLeg commits leg leg of im's nonce in one step under the store
// lock: it inserts im, merges it into the record that owns the nonce, or
// drops it as a replay. It returns the record's ID once the journal
// entry that counted the leg is durable (for a replay, an earlier
// commit's), else an error. The trace is stamped at wal_append, commit
// and feed_publish, and finished here if no feed subscriber took it.
func (s *Store) CommitLeg(im Impression, leg uint8, tr *trace.Trace) (int64, LegOutcome, error) {
	if leg >= maxLegs {
		tr.Truncate("reject:store-validate")
		return 0, LegInserted, fmt.Errorf("store: leg %d past the %d a nonce's mask holds", leg, maxLegs)
	}
	return s.commit(im, legBit(leg), im.Nonce != "", tr)
}

// commit is Insert (dedup false: an insert whatever the nonce) and
// CommitLeg; legs is the mask a new record starts with.
func (s *Store) commit(im Impression, legs uint32, dedup bool, tr *trace.Trace) (int64, LegOutcome, error) {
	var start time.Time
	if s.tel.sampleTiming() || tr != nil {
		start = time.Now()
	}
	if err := im.Validate(); err != nil {
		s.tel.insertFailures.Inc()
		tr.Truncate("reject:store-validate")
		return 0, LegInserted, err
	}
	var walSeq int64
	var delivered int
	var err error
	outcome := LegInserted
	s.mu.Lock()
	wal := s.wal
	owner, owned := s.nonces[im.Nonce]
	switch {
	case !dedup || !owned:
		walSeq, delivered, err = s.insertLocked(&im, !owned && im.Nonce != "", legs, tr)
	case owner.legs&legs != 0:
		outcome, im.ID = LegReplayed, int64(owner.pos)+1
		if wal != nil { // appends hold the store lock: the last is at or after the leg's
			walSeq = wal.seq
		}
		tr.Truncate("replay")
	default:
		outcome, im.ID = LegMerged, int64(owner.pos)+1
		walSeq, delivered, err = s.mergeLocked(int(owner.pos), Continuation(im.mergeState()), owner.legs|legs, tr)
	}
	s.mu.Unlock()
	if err == nil {
		// Group-commit rendezvous, outside the store lock so concurrent
		// commits batch into one fsync. On failure the change stands but
		// must not be acked; a replay of the leg waits here in turn.
		err = wal.waitDurable(walSeq)
	}
	if err != nil {
		if outcome == LegInserted {
			s.tel.insertFailures.Inc()
		}
		return 0, outcome, err
	}
	if outcome == LegInserted {
		s.observeInsertTraced(start, tr)
	}
	if delivered == 0 && outcome != LegReplayed {
		// No live-audit consumer: the commit is the trace's last stage.
		tr.Finish()
	}
	return im.ID, outcome, nil
}
