package store

// Cursor is an index-snapshot cursor: it pins the posting list of one
// key at creation time (a slice-header copy, not a data copy — posting
// lists are append-only) and streams the referenced records on demand.
// Records inserted after the cursor was created are not visited, which
// gives a long-running analysis a stable dataset view while ingest
// continues; records merged after creation (beacon reconnects) are
// visited in their current state, exactly like ByCampaign would return
// them at read time.
type Cursor struct {
	s    *Store
	idxs []int
	pos  int
}

// CampaignCursor returns a cursor over one campaign's impressions in
// insertion order.
func (s *Store) CampaignCursor(campaignID string) *Cursor {
	return &Cursor{s: s, idxs: s.byCampaign.snapshot(campaignID)}
}

// PublisherCursor returns a cursor over one publisher's impressions.
func (s *Store) PublisherCursor(publisher string) *Cursor {
	return &Cursor{s: s, idxs: s.byPublisher.snapshot(publisher)}
}

// UserCursor returns a cursor over one user key's impressions.
func (s *Store) UserCursor(userKey string) *Cursor {
	return &Cursor{s: s, idxs: s.byUser.snapshot(userKey)}
}

// Len returns the number of impressions the cursor will visit in total
// (independent of position) — known up front from the index snapshot.
func (c *Cursor) Len() int { return len(c.idxs) }

// Next returns the next impression and advances, or ok=false when the
// cursor is exhausted. Each call copies one record under a brief read
// lock, so writers make progress between calls; use Visit to stream
// the remainder without per-record locking or copying.
func (c *Cursor) Next() (Impression, bool) {
	if c.pos >= len(c.idxs) {
		return Impression{}, false
	}
	idx := c.idxs[c.pos]
	c.pos++
	c.s.mu.RLock()
	im := *c.s.recs.at(idx)
	c.s.mu.RUnlock()
	return im, true
}

// Visit streams the remaining records through fn under a single read
// lock, zero-copy; fn returning false stops (and leaves the cursor
// positioned after the last visited record). Same aliasing rules as
// Store.Visit: the pointer is only valid during the call and the store
// must not be mutated from within fn.
func (c *Cursor) Visit(fn func(*Impression) bool) {
	c.s.mu.RLock()
	defer c.s.mu.RUnlock()
	for c.pos < len(c.idxs) {
		idx := c.idxs[c.pos]
		c.pos++
		if !fn(c.s.recs.at(idx)) {
			return
		}
	}
}
