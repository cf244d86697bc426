package streamaudit

import (
	"fmt"

	"adaudit/internal/audit"
	"adaudit/internal/store"
)

// recRef is where a store record landed: its campaign's state and slot.
type recRef struct {
	st   *audit.State
	slot int32
}

// campaign returns (creating if needed) one campaign's state. Callers
// of this and the apply functions hold e.mu.
func (e *Engine) campaign(id string) *audit.State {
	st := e.states[id]
	if st == nil {
		st = audit.NewState()
		e.states[id] = st
	}
	return st
}

// applyInsert appends one new impression to its campaign's state. Also
// used by the snapshot prime (a primed record is just an insert whose
// merges already happened).
func (e *Engine) applyInsert(im *store.Impression) {
	st := e.campaign(im.CampaignID)
	e.recs[im.ID] = recRef{st: st, slot: int32(st.Insert(im))}
}

// applyMerge overwrites the slot of an exposure-merged record with its
// post-merge values. Timestamp, publisher, user and the data-center
// verdict are immutable after insert.
func (e *Engine) applyMerge(ev *store.FeedEvent) error {
	ref, ok := e.recs[ev.Im.ID]
	if !ok {
		return fmt.Errorf("streamaudit: merge for unknown record %d", ev.Im.ID)
	}
	ref.st.Update(int(ref.slot), &ev.Im, ev.Prev)
	return nil
}

// applyConversion records one conversion: the live summary counts it
// and the behavioral bot score acquits converting users.
func (e *Engine) applyConversion(c *store.Conversion) {
	e.campaign(c.CampaignID).Convert(c.UserKey)
}
