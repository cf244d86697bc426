package store

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"
	"unicode/utf8"
)

// This file writes the two JSON documents the store produces on its
// hot paths — a journal entry and a snapshot row — by appending to a
// caller-owned buffer, without reflection. The bytes are exactly those
// of encoding/json for the same value (json.Marshal, HTML escaping on):
// the file formats are unchanged, readers keep using encoding/json, and
// a journal or snapshot written by either encoder is read by both
// builds. FuzzWALEntry holds the two encoders to each other; a field
// added to Impression or walEntry must be added here in struct order.

// appendEntry appends e as one journal line, newline included. It
// fails exactly where json.Marshal(e) fails; dst is then unusable.
func appendEntry(dst []byte, e *walEntry) ([]byte, error) {
	var err error
	dst = append(dst, `{"op":`...)
	dst = appendJSONString(dst, e.Op)
	if e.Im != nil {
		dst = append(dst, `,"im":`...)
		if dst, err = appendImpression(dst, e.Im); err != nil {
			return dst, err
		}
	}
	if e.ID != 0 {
		dst = append(dst, `,"id":`...)
		dst = strconv.AppendInt(dst, e.ID, 10)
	}
	if e.ExposureNS != 0 {
		dst = append(dst, `,"exp":`...)
		dst = strconv.AppendInt(dst, e.ExposureNS, 10)
	}
	if e.MouseMoves != 0 {
		dst = append(dst, `,"moves":`...)
		dst = strconv.AppendInt(dst, int64(e.MouseMoves), 10)
	}
	if e.Clicks != 0 {
		dst = append(dst, `,"clicks":`...)
		dst = strconv.AppendInt(dst, int64(e.Clicks), 10)
	}
	if e.VisMeasured {
		dst = append(dst, `,"vis":true`...)
	}
	if e.MaxVis != 0 {
		dst = append(dst, `,"maxvis":`...)
		if dst, err = appendJSONFloat(dst, e.MaxVis); err != nil {
			return dst, err
		}
	}
	return append(dst, '}', '\n'), nil
}

// appendImpression appends im as a JSON object (no newline): the
// journal's "im" member and, followed by '\n', one snapshot row.
func appendImpression(dst []byte, im *Impression) ([]byte, error) {
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendInt(dst, im.ID, 10)
	dst = append(dst, `,"campaign_id":`...)
	dst = appendJSONString(dst, im.CampaignID)
	dst = append(dst, `,"creative_id":`...)
	dst = appendJSONString(dst, im.CreativeID)
	dst = append(dst, `,"publisher":`...)
	dst = appendJSONString(dst, im.Publisher)
	dst = append(dst, `,"page_url":`...)
	dst = appendJSONString(dst, im.PageURL)
	dst = append(dst, `,"user_agent":`...)
	dst = appendJSONString(dst, im.UserAgent)
	dst = append(dst, `,"ip_pseudonym":`...)
	dst = appendJSONString(dst, im.IPPseudonym)
	dst = append(dst, `,"user_key":`...)
	dst = appendJSONString(dst, im.UserKey)
	dst = append(dst, `,"isp":`...)
	dst = appendJSONString(dst, im.ISP)
	dst = append(dst, `,"country":`...)
	dst = appendJSONString(dst, im.Country)
	dst = append(dst, `,"data_center":`...)
	dst = appendJSONString(dst, im.DataCenter)
	dst = append(dst, `,"timestamp":`...)
	dst, err := appendJSONTime(dst, im.Timestamp)
	if err != nil {
		return dst, err
	}
	dst = append(dst, `,"exposure":`...)
	dst = strconv.AppendInt(dst, int64(im.Exposure), 10)
	dst = append(dst, `,"mouse_moves":`...)
	dst = strconv.AppendInt(dst, int64(im.MouseMoves), 10)
	dst = append(dst, `,"clicks":`...)
	dst = strconv.AppendInt(dst, int64(im.Clicks), 10)
	if im.VisibilityMeasured {
		dst = append(dst, `,"visibility_measured":true`...)
	}
	if im.MaxVisibleFraction != 0 {
		dst = append(dst, `,"max_visible_fraction":`...)
		if dst, err = appendJSONFloat(dst, im.MaxVisibleFraction); err != nil {
			return dst, err
		}
	}
	if im.Nonce != "" {
		dst = append(dst, `,"nonce":`...)
		dst = appendJSONString(dst, im.Nonce)
	}
	return append(dst, '}'), nil
}

// appendJSONString appends s quoted and escaped as encoding/json does
// with HTML escaping on: `"` and `\` backslashed, control bytes as \b
// \f \n \r \t or \u00XX, `<` `>` `&` as \u00XX, U+2028/9 as \u202X,
// and each byte of invalid UTF-8 as \ufffd (the six characters).
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendJSONFloat appends f in encoding/json's float64 format: the
// shortest representation that round-trips, exponent form below 1e-6
// and from 1e21 with a two-digit exponent's leading zero dropped. NaN
// and the infinities have no JSON form and are refused.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9, as encoding/json cleans it up.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// appendJSONTime appends t as time.Time.MarshalJSON writes it: quoted
// RFC 3339 with nanoseconds, refused when RFC 3339 cannot carry the
// value (a year outside 0–9999, a zone offset of 24 hours or more).
func appendJSONTime(dst []byte, t time.Time) ([]byte, error) {
	dst = append(dst, '"')
	n0 := len(dst)
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	if dst[n0+len("9999")] != '-' {
		return dst, errors.New("Time.MarshalJSON: year outside of range [0,9999]")
	}
	if dst[len(dst)-1] != 'Z' {
		zone := dst[len(dst)-len("Z07:00"):]
		if c := zone[0]; ('0' <= c && c <= '9') || 10*(zone[1]-'0')+(zone[2]-'0') >= 24 {
			return dst, errors.New("Time.MarshalJSON: timezone hour outside of range [0,23]")
		}
	}
	return append(dst, '"'), nil
}
