package store

import (
	"fmt"
	"time"

	"adaudit/internal/bytecodec"
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

// Validate checks the record is complete enough to insert, with a
// timestamp the binary codecs read back (bytecodec.CheckTime).
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
	if err := bytecodec.CheckTime(c.Timestamp); err != nil {
		return fmt.Errorf("store: conversion timestamp %v: %w", c.Timestamp, err)
	}
	return nil
}

// InsertConversion validates c, assigns it the next ID and appends it.
// With a WAL attached the conversion is journaled before the store
// mutates, under the one lock impressions take, so a conversion that
// returned survives a crash and no SnapshotCompact can reset the
// journal between its entry and its record.
func (s *Store) InsertConversion(c Conversion) (int64, error) {
	err := c.Validate()
	if err == nil {
		var walSeq int64
		s.mu.Lock()
		wal := s.wal
		c.ID = int64(len(s.convs) + 1)
		if wal != nil {
			walSeq, err = wal.append(&walEntry{Op: opConversion, Conv: &c})
		}
		if err == nil {
			s.convsByCampaign[c.CampaignID] = append(s.convsByCampaign[c.CampaignID], len(s.convs))
			s.convs = append(s.convs, c)
			s.publishFeed(FeedEvent{Kind: FeedConversion, Conv: c})
		}
		s.mu.Unlock()
		if err == nil {
			err = wal.waitDurable(walSeq)
		}
	}
	if err != nil {
		s.tel.convFailures.Inc()
		return 0, err
	}
	s.tel.convInserts.Inc()
	return c.ID, nil
}

// NumConversions returns the number of stored conversions.
func (s *Store) NumConversions() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.convs)
}

// Conversions returns a copy of one campaign's conversions in insertion
// order; an empty campaignID returns all of them.
func (s *Store) Conversions(campaignID string) []Conversion {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if campaignID == "" {
		out := make([]Conversion, len(s.convs))
		copy(out, s.convs)
		return out
	}
	idxs := s.convsByCampaign[campaignID]
	out := make([]Conversion, len(idxs))
	for i, idx := range idxs {
		out[i] = s.convs[idx]
	}
	return out
}
