package streamaudit

import (
	"fmt"

	"adaudit/internal/audit"
	"adaudit/internal/store"
)

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
	e.campaign(im.CampaignID).Insert(im)
}

// applyMerge overwrites the slot of an exposure-merged record with its
// post-merge values. The event carries the slot: a campaign's state
// holds its records in store order, primed in log order and appended in
// feed order, so a record's slot is its rank among its campaign's
// records. Timestamp, publisher, user and the data-center verdict are
// immutable after insert.
func (e *Engine) applyMerge(ev *store.FeedEvent) error {
	st := e.states[ev.Im.CampaignID]
	if st == nil || ev.Slot >= st.Len() {
		return fmt.Errorf("streamaudit: merge for record %d at slot %d of campaign %q, which the state does not hold",
			ev.Im.ID, ev.Slot, ev.Im.CampaignID)
	}
	st.Update(ev.Slot, &ev.Im, ev.Prev)
	return nil
}

// applyConversion records one conversion: the live summary counts it
// and the behavioral bot score acquits converting users.
func (e *Engine) applyConversion(c *store.Conversion) {
	e.campaign(c.CampaignID).Convert(c.UserKey)
}
