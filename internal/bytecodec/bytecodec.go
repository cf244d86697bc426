// Package bytecodec is the one reader, and the shared appenders, of the
// repository's five binary formats: the beacon's binary wire, the trunk,
// the store's journal and snapshot, the packed audit state and the
// export container. Each format keeps its own magic, version, framing
// and checks of meaning; what they share is how a value is spelled:
//
//   - an unsigned integer is a uvarint (binary.AppendUvarint), in its
//     shortest form only;
//   - a signed one a zigzag varint (binary.AppendVarint);
//   - a string or byte field a uvarint length and its bytes;
//   - a bool one byte, 0 or 1;
//   - a float its IEEE 754 bits, eight bytes little-endian;
//   - a time its Unix seconds (varint), nanoseconds (uvarint) and zone
//     offset in seconds east of UTC (varint).
//
// Reader believes no length before it has held it against the bytes that
// remain. It is a value that lives on its caller's stack: the hot
// decoders allocate nothing for it, so it must not be passed as an
// interface or captured by a closure.
package bytecodec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"time"
)

// The Reader's own errors. They are values, so a failing read formats
// nothing; a format wraps the first one once, with its own prefix.
var (
	ErrShort        = errors.New("ends early")
	ErrOverflow     = errors.New("integer overflows 64 bits")
	ErrNonCanonical = errors.New("non-canonical encoding")
	ErrZone         = errors.New("time zone 24 hours or more from UTC")
	ErrYear         = errors.New("time year outside 0–9999")
)

// Reader consumes an encoding from the front. Its first failure sticks:
// it empties what remains, so every read after it returns zero and a
// decoder checks Err once per section, not once per read.
type Reader struct {
	b   []byte // what remains
	err error
}

// NewReader returns a Reader of b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Len is the number of bytes that remain.
func (r *Reader) Len() int { return len(r.b) }

// Err is the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Fail records err unless a failure is already recorded, and empties
// what remains. Formats call it for their own checks.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if len(r.b) == 0 {
		r.Fail(ErrShort)
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// Uvarint reads a uvarint in its shortest form, the one
// binary.AppendUvarint writes: a longer one ends in a zero byte and is
// refused, so a value has one encoding.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	switch {
	case n == 0:
		r.Fail(ErrShort)
		return 0
	case n < 0:
		r.Fail(ErrOverflow)
		return 0
	case n > 1 && r.b[n-1] == 0:
		r.Fail(ErrNonCanonical)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Varint reads a zigzag varint, in its shortest form.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Count reads how many elements of at least elemSize bytes each (1 or
// more) follow, refusing a count the bytes that remain cannot hold.
func (r *Reader) Count(elemSize int) int {
	v := r.Uvarint()
	if v > uint64(len(r.b)/elemSize) {
		r.Fail(fmt.Errorf("claims %d elements of %d bytes or more, %d bytes remain", v, elemSize, len(r.b)))
		return 0
	}
	return int(v)
}

// Bytes reads the next n bytes. They alias the input: a caller that
// keeps them past the input's life copies them.
func (r *Reader) Bytes(n uint64) []byte {
	if n > uint64(len(r.b)) {
		r.Fail(ErrShort)
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

// String reads the next n bytes as a string of its own.
func (r *Reader) String(n uint64) string {
	if n > uint64(len(r.b)) {
		r.Fail(ErrShort)
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// Float64 reads a float's eight bytes, little-endian.
func (r *Reader) Float64() float64 {
	if len(r.b) < 8 {
		r.Fail(ErrShort)
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return f
}

// Time reads what AppendTime wrote, refusing what CheckTime refuses and
// a nanosecond count of a second or more. An offset of 0 reads back as
// UTC; one the local zone has at that instant as the local zone, and
// any other as a fixed zone.
func (r *Reader) Time() time.Time {
	sec, nsec, off := r.Varint(), r.Uvarint(), r.Varint()
	switch {
	case r.err != nil:
		return time.Time{}
	case nsec >= 1e9:
		r.Fail(ErrNonCanonical)
		return time.Time{}
	}
	if err := checkTime(sec, off); err != nil {
		r.Fail(err)
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

// The span of Unix seconds whose wall-clock year is 0–9999.
var (
	minSec = time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
	maxSec = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
)

// CheckTime reports whether Time reads t back: ErrZone for a zone 24
// hours or more from UTC, ErrYear for a year in t's own zone outside
// 0–9999 (what RFC 3339 cannot write), else nil.
func CheckTime(t time.Time) error {
	_, off := t.Zone()
	return checkTime(t.Unix(), int64(off))
}

func checkTime(sec, off int64) error {
	if off <= -24*3600 || off >= 24*3600 {
		return ErrZone
	}
	// With |off| under a day an overflow of the sum lands far outside.
	if wall := sec + off; wall < minSec || wall >= maxSec {
		return ErrYear
	}
	return nil
}

// AppendString appends s's length as a uvarint, then s.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendFloat64 appends f's IEEE 754 bits, little-endian, so every float
// crosses bit-exact.
func AppendFloat64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// AppendTime appends t's instant and zone offset: what RFC 3339 can tell
// apart. It checks nothing; a writer that must read t back calls
// CheckTime first.
func AppendTime(b []byte, t time.Time) []byte {
	_, off := t.Zone()
	b = binary.AppendVarint(b, t.Unix())
	b = binary.AppendUvarint(b, uint64(t.Nanosecond()))
	return binary.AppendVarint(b, int64(off))
}

// UvarintLen is the size of v under binary.AppendUvarint.
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// StringLen is the size of s under AppendString.
func StringLen(s string) int { return UvarintLen(uint64(len(s))) + len(s) }

// VarintLen is the size of v under binary.AppendVarint.
func VarintLen(v int64) int { return UvarintLen(uint64(v)<<1 ^ uint64(v>>63)) }
