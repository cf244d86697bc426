package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Conversion is one desired action (purchase, booking, signup) reported
// by the advertiser's own conversion pixel and attributed to a user.
// The paper defines the conversion ratio in §2 and defers its analysis
// to future work; this implements it.
type Conversion struct {
	// ID is the store-assigned sequence number (1-based).
	ID int64 `json:"id"`
	// CampaignID is the campaign the converting user was exposed to.
	CampaignID string `json:"campaign_id"`
	// UserKey is the same (IP pseudonym, User-Agent) identity the
	// impression records use, so conversions join to exposures.
	UserKey string `json:"user_key"`
	// Action names the conversion event, e.g. "purchase".
	Action string `json:"action"`
	// ValueCents is the conversion's monetary value in euro cents
	// (0 when the action has no value).
	ValueCents int64 `json:"value_cents"`
	// Timestamp is the conversion time at the collector.
	Timestamp time.Time `json:"timestamp"`
}

// Validate checks the record is complete enough to insert.
func (c *Conversion) Validate() error {
	switch {
	case c.CampaignID == "":
		return fmt.Errorf("store: conversion missing campaign id")
	case c.UserKey == "":
		return fmt.Errorf("store: conversion missing user key")
	case c.Action == "":
		return fmt.Errorf("store: conversion missing action")
	case c.Timestamp.IsZero():
		return fmt.Errorf("store: conversion missing timestamp")
	case c.ValueCents < 0:
		return fmt.Errorf("store: negative conversion value %d", c.ValueCents)
	}
	return nil
}

// conversionLog holds the conversion records alongside the impression
// store. Kept separate so impression scans stay unaffected.
type conversionLog struct {
	mu         sync.RWMutex
	recs       []Conversion
	byCampaign map[string][]int
}

// InsertConversion validates c, assigns it the next ID and appends it.
func (s *Store) InsertConversion(c Conversion) (int64, error) {
	if err := c.Validate(); err != nil {
		s.tel.convFailures.Inc()
		return 0, err
	}
	l := &s.conversions
	l.mu.Lock()
	defer l.mu.Unlock()
	idx := len(l.recs)
	c.ID = int64(idx + 1)
	l.recs = append(l.recs, c)
	l.byCampaign[c.CampaignID] = append(l.byCampaign[c.CampaignID], idx)
	// Published under l.mu (not s.mu): the feed's own mutex assigns
	// the cross-log sequence number, and Subscribe holds both read
	// locks while priming, so the snapshot/delta cut stays consistent.
	s.publishFeed(FeedEvent{Kind: FeedConversion, Conv: c})
	s.tel.convInserts.Inc()
	return c.ID, nil
}

// NumConversions returns the number of stored conversions.
func (s *Store) NumConversions() int {
	l := &s.conversions
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.recs)
}

// Conversions returns a copy of one campaign's conversions in insertion
// order; an empty campaignID returns all of them.
func (s *Store) Conversions(campaignID string) []Conversion {
	l := &s.conversions
	l.mu.RLock()
	defer l.mu.RUnlock()
	if campaignID == "" {
		out := make([]Conversion, len(l.recs))
		copy(out, l.recs)
		return out
	}
	idxs := l.byCampaign[campaignID]
	out := make([]Conversion, len(idxs))
	for i, idx := range idxs {
		out[i] = l.recs[idx]
	}
	return out
}

// WriteConversionsSnapshot streams the conversions as JSON lines.
func (s *Store) WriteConversionsSnapshot(w io.Writer) error {
	l := &s.conversions
	l.mu.RLock()
	defer l.mu.RUnlock()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range l.recs {
		if err := enc.Encode(l.recs[i]); err != nil {
			return fmt.Errorf("store: encoding conversion %d: %w", l.recs[i].ID, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("store: flushing conversions snapshot: %w", err)
	}
	return nil
}

// ReadConversionsSnapshot loads JSON-lines conversions into the store,
// reassigning IDs in file order.
func (s *Store) ReadConversionsSnapshot(r io.Reader) error {
	dec := json.NewDecoder(bufio.NewReader(r))
	for line := 1; ; line++ {
		var c Conversion
		if err := dec.Decode(&c); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("store: decoding conversion %d: %w", line, err)
		}
		if _, err := s.InsertConversion(c); err != nil {
			return fmt.Errorf("store: conversion snapshot record %d: %w", line, err)
		}
	}
}
