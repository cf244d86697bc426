package collector

import (
	"fmt"
	"net/http"
	"net/netip"
	"time"

	"adaudit/internal/beacon"
	"adaudit/internal/store"
)

// ConversionObservation is one conversion-pixel hit as seen at the
// network edge.
type ConversionObservation struct {
	Conversion beacon.Conversion
	// RemoteIP is the converting browser's address; together with the
	// User-Agent it forms the same user identity the impression records
	// carry, so exposures and conversions join.
	RemoteIP  netip.Addr
	UserAgent string
	// At is the pixel request time.
	At time.Time
}

// IngestConversion enriches obs and commits it to the store.
func (c *Collector) IngestConversion(obs ConversionObservation) (int64, error) {
	if err := obs.Conversion.Validate(); err != nil {
		c.reject(RejectConvValidate)
		return 0, err
	}
	pseud := c.cfg.Anonymizer.Pseudonym(obs.RemoteIP)
	id, err := c.cfg.Store.InsertConversion(store.Conversion{
		CampaignID: obs.Conversion.CampaignID,
		UserKey:    UserKey(pseud, obs.UserAgent),
		Action:     obs.Conversion.Action,
		ValueCents: obs.Conversion.ValueCents,
		Timestamp:  obs.At,
	})
	if err != nil {
		c.reject(RejectConvInsert)
		return 0, fmt.Errorf("collector: storing conversion: %w", err)
	}
	c.Metrics.Conversions.Add(1)
	if c.tel.enabled {
		c.lastIngest.Store(time.Now().UnixNano())
	}
	return id, nil
}

// onePixelGIF is a transparent 1x1 GIF, the classic tracking-pixel
// response body.
var onePixelGIF = []byte{
	0x47, 0x49, 0x46, 0x38, 0x39, 0x61, 0x01, 0x00, 0x01, 0x00, 0x80, 0x00,
	0x00, 0x00, 0x00, 0x00, 0xFF, 0xFF, 0xFF, 0x21, 0xF9, 0x04, 0x01, 0x00,
	0x00, 0x00, 0x00, 0x2C, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x01, 0x00,
	0x00, 0x02, 0x02, 0x44, 0x01, 0x00, 0x3B,
}

// ServeConversionPixel handles GET /conv?... (mounted under a GET
// pattern, so the mux refuses other methods): it decodes the conversion
// payload from the query string, derives the user identity from the
// connection, commits the record and answers with a 1x1 GIF so the
// embedding <img> renders cleanly. Failures still return the pixel (a
// broken image on the advertiser's page would leak the measurement).
func (c *Collector) ServeConversionPixel(w http.ResponseWriter, r *http.Request) {
	serve := func() {
		w.Header().Set("Content-Type", "image/gif")
		w.Header().Set("Cache-Control", "no-store")
		w.Write(onePixelGIF)
	}
	conv, err := beacon.DecodeConversion(r.URL.RawQuery)
	if err != nil {
		c.reject(RejectConvDecode)
		c.cfg.Logger.Debug("collector: bad conversion pixel", "err", err, "remote", r.RemoteAddr)
		serve()
		return
	}
	ap, err := netip.ParseAddrPort(r.RemoteAddr)
	if err != nil {
		c.reject(RejectConvPeerAddr)
		serve()
		return
	}
	if _, err := c.IngestConversion(ConversionObservation{
		Conversion: conv,
		RemoteIP:   ap.Addr().Unmap(),
		UserAgent:  r.UserAgent(),
		At:         time.Now(),
	}); err != nil {
		c.cfg.Logger.Warn("collector: conversion ingest failed", "err", err)
	}
	serve()
}
