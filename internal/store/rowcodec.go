package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"time"

	"adaudit/internal/bytecodec"
)

// This file is the one binary format of the store's durable state, the
// journal and the snapshot alike, format version 2.
//
// A file is RowsHeader, then entries. An entry is a 12-byte frame
// header — the body's length, a CRC-32C of those four bytes and a
// CRC-32C of the body, each a little-endian uint32 — and the body. The
// length has a checksum of its own so that a damaged length is named as
// damage: a length that ran past the end of the file would otherwise
// pass for a torn final append and silently take every later entry with
// it. A body is an op byte and the op's payload:
//
//   - opInsert: a row — the ID, the ten strings in Impression's field
//     order, the timestamp, exposure, mouse moves, clicks, the
//     visibility flag, the visible fraction and the nonce. The user key
//     is written as 0 when it is the collector's IPPseudonym + "|" +
//     UserAgent (both already in the row: a third copy was a third of
//     a row of the paper dataset), else as its length plus one and its
//     bytes;
//   - opMerge: the merged record's ID and its absolute post-merge
//     exposure, mouse moves, clicks, visibility flag and fraction;
//   - opInsertLegs, opMergeLegs: the same, then the record's mask of
//     merged legs (legs.go), a uvarint: written only where an opInsert
//     (leg 0's mask) or an opMerge (the mask unchanged) would be wrong,
//     so a history without later legs writes the bytes it always did;
//   - opConversion: a conversion — its ID, campaign, user key and
//     action, its value in cents (never negative) and its timestamp.
//
// An integer is a zigzag varint; a string, a flag, a float and a
// timestamp are spelled as internal/bytecodec spells them (a timestamp
// offset of 0 reads back as UTC, the local zone's offset as the local
// zone). The timestamp is not time.Time's own binary form: that has no
// append form before go1.24, and an offset with seconds west of UTC does
// not survive its round trip (-150 s reads back as +106 s). A snapshot is a file of
// inserts, with or without legs, then of conversions: a store that
// holds no conversion writes the bytes it did before they were
// journaled. Other op bytes are free for new kinds of entry; this
// build's decoder refuses them.
//
// The encoder refuses, before it frames an entry, a non-finite visible
// fraction, a negative conversion value, and a timestamp whose year in
// its own zone is outside 0–9999 or whose zone is 24 hours or more from
// UTC. The decoder refuses the same, a mask empty or over 32 bits, and
// every non-canonical encoding (an overlong varint, a flag other than 0
// or 1, a user key written out that is the derived one, an opInsertLegs
// of leg 0's mask or without a nonce, trailing bytes), so a body that
// decodes re-encodes to the same bytes.

// RowsHeader opens every journal and snapshot this build writes: the
// magic "ADRW" and the format version, 2.
const RowsHeader = "ADRW\x02"

// The op byte of an entry body.
const (
	opInsert     byte = 1
	opMerge      byte = 2
	opInsertLegs byte = 3
	opMergeLegs  byte = 4
	opConversion byte = 5
)

// frameLen is the size of an entry's frame header.
const frameLen = 12

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// The encoder's refusals. They are values, not formatted errors: an
// error that printed a field of the entry would move the entry being
// committed to the heap on every commit.
var (
	errNonFinite = errors.New("visible fraction is not finite")
	errNegative  = errors.New("conversion value negative")
)

// appendFramed appends e as one framed entry. On a refusal dst comes
// back as it was passed in.
func appendFramed(dst []byte, e *walEntry) ([]byte, error) {
	at := len(dst)
	var hdr [frameLen]byte
	dst, err := appendEntry(append(dst, hdr[:]...), e)
	if err != nil {
		return dst[:at], err
	}
	frame := dst[at : at+frameLen]
	binary.LittleEndian.PutUint32(frame, uint32(len(dst)-at-frameLen))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(frame[:4], castagnoli))
	binary.LittleEndian.PutUint32(frame[8:], crc32.Checksum(dst[at+frameLen:], castagnoli))
	return dst, nil
}

// appendEntry appends the body of e: an insert or a merge, with or
// without legs, or a conversion.
func appendEntry(dst []byte, e *walEntry) ([]byte, error) {
	var err error
	if dst = append(dst, e.Op); e.Op == opInsert || e.Op == opInsertLegs {
		dst, err = appendRow(dst, e.Im)
	} else if e.Op == opConversion {
		dst, err = appendConversion(dst, e.Conv)
	} else if !finite(e.MaxVis) {
		err = errNonFinite
	} else {
		dst = binary.AppendVarint(dst, e.ID)
		dst = binary.AppendVarint(dst, e.ExposureNS)
		dst = binary.AppendVarint(dst, int64(e.MouseMoves))
		dst = binary.AppendVarint(dst, int64(e.Clicks))
		dst = bytecodec.AppendBool(dst, e.VisMeasured)
		dst = bytecodec.AppendFloat64(dst, e.MaxVis)
	}
	if err == nil && (e.Op == opInsertLegs || e.Op == opMergeLegs) {
		dst = binary.AppendUvarint(dst, uint64(e.Legs))
	}
	return dst, err
}

func appendRow(dst []byte, im *Impression) ([]byte, error) {
	if !finite(im.MaxVisibleFraction) {
		return dst, errNonFinite
	}
	dst = binary.AppendVarint(dst, im.ID)
	for _, s := range [...]string{im.CampaignID, im.CreativeID, im.Publisher, im.PageURL,
		im.UserAgent, im.IPPseudonym} {
		dst = bytecodec.AppendString(dst, s)
	}
	if isDerivedUserKey(im.UserKey, im.IPPseudonym, im.UserAgent) {
		dst = append(dst, 0)
	} else {
		dst = append(binary.AppendUvarint(dst, uint64(len(im.UserKey))+1), im.UserKey...)
	}
	for _, s := range [...]string{im.ISP, im.Country, im.DataCenter} {
		dst = bytecodec.AppendString(dst, s)
	}
	if err := bytecodec.CheckTime(im.Timestamp); err != nil {
		return dst, err
	}
	dst = bytecodec.AppendTime(dst, im.Timestamp)
	dst = binary.AppendVarint(dst, int64(im.Exposure))
	dst = binary.AppendVarint(dst, int64(im.MouseMoves))
	dst = binary.AppendVarint(dst, int64(im.Clicks))
	dst = bytecodec.AppendBool(dst, im.VisibilityMeasured)
	dst = bytecodec.AppendFloat64(dst, im.MaxVisibleFraction)
	return bytecodec.AppendString(dst, im.Nonce), nil
}

func appendConversion(dst []byte, c *Conversion) ([]byte, error) {
	if c.ValueCents < 0 {
		return dst, errNegative
	}
	if err := bytecodec.CheckTime(c.Timestamp); err != nil {
		return dst, err
	}
	dst = binary.AppendVarint(dst, c.ID)
	for _, s := range [...]string{c.CampaignID, c.UserKey, c.Action} {
		dst = bytecodec.AppendString(dst, s)
	}
	return bytecodec.AppendTime(binary.AppendVarint(dst, c.ValueCents), c.Timestamp), nil
}

// isDerivedUserKey reports whether key is the user key the collector
// derives from a record's address pseudonym and User-Agent, which a
// row then writes as the one byte 0 instead of a third copy of both.
func isDerivedUserKey(key, ipPseudonym, userAgent string) bool {
	return len(key) == len(ipPseudonym)+1+len(userAgent) && key[len(ipPseudonym)] == '|' &&
		key[:len(ipPseudonym)] == ipPseudonym && key[len(ipPseudonym)+1:] == userAgent
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// decodeEntry decodes one body into e. An insert's row is decoded into
// *row, which e.Im then points at; a conversion into a new Conversion.
func decodeEntry(body []byte, e *walEntry, row *Impression) error {
	r := bodyReader{bytecodec.NewReader(body)}
	*e = walEntry{Op: r.Byte()}
	switch e.Op {
	case opInsert, opInsertLegs:
		r.row(row)
		e.Im = row
	case opMerge, opMergeLegs:
		e.ID = r.Varint()
		e.ExposureNS = r.Varint()
		e.MouseMoves = int(r.Varint())
		e.Clicks = int(r.Varint())
		e.VisMeasured = r.flag()
		e.MaxVis = r.float()
	case opConversion:
		e.Conv = r.conversion()
	default:
		if r.Err() == nil {
			return fmt.Errorf("unknown op %d", e.Op)
		}
	}
	if e.Op == opInsertLegs || e.Op == opMergeLegs {
		r.legs(e)
	}
	if r.Err() == nil && r.Len() > 0 {
		return fmt.Errorf("%d bytes follow the entry", r.Len())
	}
	return r.Err()
}

// bodyReader consumes a body: the byte codec's reader, plus the row's
// derived user key, leg mask, flags and finite floats.
type bodyReader struct{ bytecodec.Reader }

var errLegs = errors.New("leg mask empty or wider than 32 bits")

func (r *bodyReader) string() string { return r.String(r.Uvarint()) }

// userKey reads a row's user key: 0 for the derived one (see
// isDerivedUserKey), else its length plus one and its bytes — which
// must not spell the derived key, or the body would not be canonical.
func (r *bodyReader) userKey(im *Impression) string {
	n := r.Uvarint()
	if n == 0 {
		return im.IPPseudonym + "|" + im.UserAgent
	}
	key := r.String(n - 1)
	if isDerivedUserKey(key, im.IPPseudonym, im.UserAgent) {
		r.Fail(bytecodec.ErrNonCanonical)
	}
	return key
}

// legs reads e's mask of merged legs: not empty, 32 bits at most, and
// on a row only one that owns its nonce with other than leg 0's mask.
func (r *bodyReader) legs(e *walEntry) {
	m := r.Uvarint()
	switch e.Legs = uint32(m); {
	case r.Err() != nil:
	case m == 0 || m > math.MaxUint32:
		r.Fail(errLegs)
	case e.Op == opInsertLegs && (e.Legs == legBit(0) || e.Im.Nonce == ""):
		r.Fail(bytecodec.ErrNonCanonical)
	}
}

func (r *bodyReader) flag() bool {
	switch r.Byte() {
	case 0:
		return false
	case 1:
		return true
	}
	r.Fail(bytecodec.ErrNonCanonical)
	return false
}

func (r *bodyReader) float() float64 {
	f := r.Float64()
	if !finite(f) {
		r.Fail(errNonFinite)
	}
	return f
}

func (r *bodyReader) row(im *Impression) {
	im.ID = r.Varint()
	for _, s := range [...]*string{&im.CampaignID, &im.CreativeID, &im.Publisher, &im.PageURL,
		&im.UserAgent, &im.IPPseudonym} {
		*s = r.string()
	}
	im.UserKey = r.userKey(im)
	for _, s := range [...]*string{&im.ISP, &im.Country, &im.DataCenter} {
		*s = r.string()
	}
	im.Timestamp = r.Time()
	im.Exposure = time.Duration(r.Varint())
	im.MouseMoves = int(r.Varint())
	im.Clicks = int(r.Varint())
	im.VisibilityMeasured = r.flag()
	im.MaxVisibleFraction = r.float()
	im.Nonce = r.string()
}

func (r *bodyReader) conversion() *Conversion {
	c := &Conversion{ID: r.Varint(), CampaignID: r.string(), UserKey: r.string(), Action: r.string()}
	if c.ValueCents = r.Varint(); c.ValueCents < 0 {
		r.Fail(errNegative)
	}
	c.Timestamp = r.Time()
	return c
}

// errTorn reports a file that ends inside an entry, or whose final
// entry fails its body checksum: what a crash in the middle of an
// append leaves.
var errTorn = errors.New("torn final entry")

// entryReader reads the entries of a version 2 file whose header has
// been consumed.
type entryReader struct {
	br   *bufio.Reader
	body []byte // the last body read, reused
	n    int    // entries read whole
	end  int64  // file offset just past the last entry read whole
}

func newEntryReader(br *bufio.Reader) *entryReader {
	return &entryReader{br: br, end: int64(len(RowsHeader))}
}

// next returns the next entry's body, valid until the following call:
// io.EOF after the last entry, errTorn (see there), and any other error
// for damage.
func (r *entryReader) next() ([]byte, error) {
	var hdr [frameLen]byte
	if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, errTorn
		}
		return nil, err
	}
	size := binary.LittleEndian.Uint32(hdr[:])
	if binary.LittleEndian.Uint32(hdr[4:]) != crc32.Checksum(hdr[:4], castagnoli) {
		return nil, errors.New("length checksum mismatch")
	}
	body, err := r.readBody(int(size))
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, errTorn
		}
		return nil, err
	}
	if binary.LittleEndian.Uint32(hdr[8:]) != crc32.Checksum(body, castagnoli) {
		if _, err := r.br.Peek(1); err == io.EOF {
			return nil, errTorn
		}
		return nil, errors.New("body checksum mismatch")
	}
	r.n++
	r.end += int64(frameLen + len(body))
	return body, nil
}

// readBody reads an n-byte body into the reused buffer, growing it no
// faster than the input fills it, so that a length naming more bytes
// than the input holds costs no more memory than the input.
func (r *entryReader) readBody(n int) ([]byte, error) {
	b := r.body[:0]
	for len(b) < n {
		step := min(n-len(b), max(len(b), 4<<10))
		b = slices.Grow(b, step)
		m, err := io.ReadFull(r.br, b[len(b):len(b)+step])
		b = b[:len(b)+m]
		if err != nil {
			r.body = b
			return nil, err
		}
	}
	r.body = b
	return b, nil
}
