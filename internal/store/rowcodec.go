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
// An integer is a zigzag varint; a string a uvarint length and its
// bytes; a flag one byte, 0 or 1; a float its IEEE 754 bits, eight
// bytes little-endian; a timestamp its Unix seconds (varint),
// nanoseconds (uvarint) and zone offset in seconds east of UTC (varint;
// 0 reads back as UTC, the local zone's offset as the local zone). The
// timestamp is not time.Time's own binary form: that has no append form
// before go1.24, and an offset with seconds west of UTC does not survive
// its round trip (-150 s reads back as +106 s). A snapshot is a file of
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
	errYear      = errors.New("timestamp year outside 0–9999")
	errZone      = errors.New("timestamp zone 24 hours or more from UTC")
	errNegative  = errors.New("conversion value negative")
)

// The span of Unix seconds whose wall-clock year is 0–9999.
var (
	minRowSec = time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
	maxRowSec = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
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
		dst = appendFlag(dst, e.VisMeasured)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.MaxVis))
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
		dst = appendString(dst, s)
	}
	if isDerivedUserKey(im.UserKey, im.IPPseudonym, im.UserAgent) {
		dst = append(dst, 0)
	} else {
		dst = append(binary.AppendUvarint(dst, uint64(len(im.UserKey))+1), im.UserKey...)
	}
	for _, s := range [...]string{im.ISP, im.Country, im.DataCenter} {
		dst = appendString(dst, s)
	}
	dst, err := appendTime(dst, im.Timestamp)
	if err != nil {
		return dst, err
	}
	dst = binary.AppendVarint(dst, int64(im.Exposure))
	dst = binary.AppendVarint(dst, int64(im.MouseMoves))
	dst = binary.AppendVarint(dst, int64(im.Clicks))
	dst = appendFlag(dst, im.VisibilityMeasured)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(im.MaxVisibleFraction))
	return appendString(dst, im.Nonce), nil
}

func appendConversion(dst []byte, c *Conversion) ([]byte, error) {
	if c.ValueCents < 0 {
		return dst, errNegative
	}
	dst = binary.AppendVarint(dst, c.ID)
	for _, s := range [...]string{c.CampaignID, c.UserKey, c.Action} {
		dst = appendString(dst, s)
	}
	return appendTime(binary.AppendVarint(dst, c.ValueCents), c.Timestamp)
}

// appendTime appends t, or refuses a timestamp the format cannot hold;
// appendFramed then drops what the entry had written.
func appendTime(dst []byte, t time.Time) ([]byte, error) {
	_, off := t.Zone()
	sec := t.Unix()
	switch {
	case off <= -24*3600 || off >= 24*3600:
		return dst, errZone
	case !yearInRange(sec, off):
		return dst, errYear
	}
	dst = binary.AppendVarint(dst, sec)
	dst = binary.AppendUvarint(dst, uint64(t.Nanosecond()))
	return binary.AppendVarint(dst, int64(off)), nil
}

func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// isDerivedUserKey reports whether key is the user key the collector
// derives from a record's address pseudonym and User-Agent, which a
// row then writes as the one byte 0 instead of a third copy of both.
func isDerivedUserKey(key, ipPseudonym, userAgent string) bool {
	return len(key) == len(ipPseudonym)+1+len(userAgent) && key[len(ipPseudonym)] == '|' &&
		key[:len(ipPseudonym)] == ipPseudonym && key[len(ipPseudonym)+1:] == userAgent
}

func appendFlag(dst []byte, f bool) []byte {
	if f {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// yearInRange reports whether the wall clock sec seconds after the Unix
// epoch, in a zone off seconds east of UTC, reads a year in 0–9999.
// With |off| under a day an overflow of the sum lands far outside.
func yearInRange(sec int64, off int) bool {
	wall := sec + int64(off)
	return minRowSec <= wall && wall < maxRowSec
}

// decodeEntry decodes one body into e. An insert's row is decoded into
// *row, which e.Im then points at; a conversion into a new Conversion.
func decodeEntry(body []byte, e *walEntry, row *Impression) error {
	r := bodyReader{b: body}
	*e = walEntry{Op: r.byte()}
	switch e.Op {
	case opInsert, opInsertLegs:
		r.row(row)
		e.Im = row
	case opMerge, opMergeLegs:
		e.ID = r.varint()
		e.ExposureNS = r.varint()
		e.MouseMoves = int(r.varint())
		e.Clicks = int(r.varint())
		e.VisMeasured = r.flag()
		e.MaxVis = r.float()
	case opConversion:
		e.Conv = r.conversion()
	default:
		if r.err == nil {
			return fmt.Errorf("unknown op %d", e.Op)
		}
	}
	if e.Op == opInsertLegs || e.Op == opMergeLegs {
		r.legs(e)
	}
	if r.err == nil && len(r.b) > 0 {
		return fmt.Errorf("%d bytes follow the entry", len(r.b))
	}
	return r.err
}

// bodyReader consumes a body; its first failure sticks.
type bodyReader struct {
	b   []byte // what remains
	err error
}

var (
	errBodyShort    = errors.New("body ends early")
	errNonCanonical = errors.New("non-canonical encoding")
	errLegs         = errors.New("leg mask empty or wider than 32 bits")
)

func (r *bodyReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

func (r *bodyReader) byte() byte {
	if len(r.b) == 0 {
		r.fail(errBodyShort)
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// uvarint reads a uvarint in its shortest form: a longer one ends in a
// zero byte.
func (r *bodyReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	switch {
	case n <= 0:
		r.fail(errBodyShort)
		return 0
	case n > 1 && r.b[n-1] == 0:
		r.fail(errNonCanonical)
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *bodyReader) varint() int64 {
	u := r.uvarint()
	x := int64(u >> 1)
	if u&1 != 0 {
		x = ^x
	}
	return x
}

func (r *bodyReader) string() string { return r.take(r.uvarint()) }

// take reads the next n bytes as a string.
func (r *bodyReader) take(n uint64) string {
	if n > uint64(len(r.b)) {
		r.fail(errBodyShort)
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// userKey reads a row's user key: 0 for the derived one (see
// isDerivedUserKey), else its length plus one and its bytes — which
// must not spell the derived key, or the body would not be canonical.
func (r *bodyReader) userKey(im *Impression) string {
	n := r.uvarint()
	if n == 0 {
		return im.IPPseudonym + "|" + im.UserAgent
	}
	key := r.take(n - 1)
	if isDerivedUserKey(key, im.IPPseudonym, im.UserAgent) {
		r.fail(errNonCanonical)
	}
	return key
}

// legs reads e's mask of merged legs: not empty, 32 bits at most, and
// on a row only one that owns its nonce with other than leg 0's mask.
func (r *bodyReader) legs(e *walEntry) {
	m := r.uvarint()
	switch e.Legs = uint32(m); {
	case r.err != nil:
	case m == 0 || m > math.MaxUint32:
		r.fail(errLegs)
	case e.Op == opInsertLegs && (e.Legs == legBit(0) || e.Im.Nonce == ""):
		r.fail(errNonCanonical)
	}
}

func (r *bodyReader) flag() bool {
	switch r.byte() {
	case 0:
		return false
	case 1:
		return true
	}
	r.fail(errNonCanonical)
	return false
}

func (r *bodyReader) float() float64 {
	if len(r.b) < 8 {
		r.fail(errBodyShort)
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	if !finite(f) {
		r.fail(errNonFinite)
	}
	return f
}

func (r *bodyReader) time() time.Time {
	sec, nsec, off := r.varint(), r.uvarint(), r.varint()
	switch {
	case r.err != nil:
		return time.Time{}
	case nsec >= 1e9:
		r.fail(errNonCanonical)
		return time.Time{}
	case off <= -24*3600 || off >= 24*3600:
		r.fail(errZone)
		return time.Time{}
	case !yearInRange(sec, int(off)):
		r.fail(errYear)
		return time.Time{}
	}
	t := time.Unix(sec, int64(nsec)) // in the local zone
	if off == 0 {
		return t.UTC()
	}
	if _, local := t.Zone(); local != int(off) {
		t = t.In(time.FixedZone("", int(off)))
	}
	return t
}

func (r *bodyReader) row(im *Impression) {
	im.ID = r.varint()
	for _, s := range [...]*string{&im.CampaignID, &im.CreativeID, &im.Publisher, &im.PageURL,
		&im.UserAgent, &im.IPPseudonym} {
		*s = r.string()
	}
	im.UserKey = r.userKey(im)
	for _, s := range [...]*string{&im.ISP, &im.Country, &im.DataCenter} {
		*s = r.string()
	}
	im.Timestamp = r.time()
	im.Exposure = time.Duration(r.varint())
	im.MouseMoves = int(r.varint())
	im.Clicks = int(r.varint())
	im.VisibilityMeasured = r.flag()
	im.MaxVisibleFraction = r.float()
	im.Nonce = r.string()
}

func (r *bodyReader) conversion() *Conversion {
	c := &Conversion{ID: r.varint(), CampaignID: r.string(), UserKey: r.string(), Action: r.string()}
	if c.ValueCents = r.varint(); c.ValueCents < 0 {
		r.fail(errNegative)
	}
	c.Timestamp = r.time()
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
