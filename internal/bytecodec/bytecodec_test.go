package bytecodec

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
)

// FuzzReader runs a program of reads, one op byte each, over data and
// holds the Reader to what every format relies on: no read panics;
// after the first error every read returns zero and the error stays;
// Uvarint and Varint accept exactly what binary.AppendUvarint and
// AppendVarint write, and Time what AppendTime writes of a time
// CheckTime passes; a read that succeeds consumes just its bytes; and
// Count never exceeds Len()/elemSize. The committed corpus under
// testdata/fuzz/FuzzReader seeds it; scripts/check.sh -fuzz-smoke runs
// it.
func FuzzReader(f *testing.F) {
	f.Add([]byte{1, 2, 3}, binary.AppendUvarint(nil, 300))
	f.Add([]byte{1}, []byte{0x80, 0x00})
	f.Add([]byte{2, 2}, binary.AppendVarint(binary.AppendVarint(nil, -1), 1<<40))
	f.Add([]byte{3, 4}, append(binary.AppendUvarint(nil, 3), "abc"...))
	f.Add([]byte{0x13, 5}, append(binary.AppendUvarint(nil, 1<<40), 0, 0))
	f.Add([]byte{7, 0, 7}, AppendTime(nil, time.Date(2016, 3, 29, 12, 0, 0, 5, time.FixedZone("", -150))))
	f.Add([]byte{6, 6, 0}, AppendFloat64(nil, 0.75))
	f.Add([]byte{1, 1}, bytes.Repeat([]byte{0xff}, 11))
	f.Fuzz(func(t *testing.T, ops, data []byte) {
		r := NewReader(data)
		for _, op := range ops {
			failed, firstErr := r.Err() != nil, r.Err()
			before := r.b
			var zero bool
			switch op % 8 {
			case 0:
				zero = r.Byte() == 0
			case 1:
				v := r.Uvarint()
				zero = v == 0
				if r.Err() == nil {
					consumed(t, before, r.b, binary.AppendUvarint(nil, v))
				} else if v2, n := binary.Uvarint(before); !failed && n > 0 && bytes.Equal(before[:n], binary.AppendUvarint(nil, v2)) {
					t.Fatalf("Uvarint refused %x, binary.AppendUvarint's spelling of %d: %v", before[:n], v2, r.Err())
				}
			case 2:
				v := r.Varint()
				zero = v == 0
				if r.Err() == nil {
					consumed(t, before, r.b, binary.AppendVarint(nil, v))
				}
			case 3:
				elemSize := int(op>>3) + 1
				n := r.Count(elemSize)
				zero = n == 0
				if n > r.Len()/elemSize {
					t.Fatalf("Count(%d) = %d with %d bytes left", elemSize, n, r.Len())
				}
			case 4:
				n := uint64(op >> 3)
				got := r.Bytes(n)
				zero = got == nil
				if r.Err() == nil {
					consumed(t, before, r.b, got)
				}
			case 5:
				n := uint64(op >> 3)
				got := r.String(n)
				zero = got == ""
				if r.Err() == nil {
					consumed(t, before, r.b, []byte(got))
				}
			case 6:
				v := r.Float64()
				zero = v == 0
				if r.Err() == nil {
					consumed(t, before, r.b, AppendFloat64(nil, v))
				}
			case 7:
				tm := r.Time()
				zero = tm.IsZero()
				if r.Err() == nil {
					if err := CheckTime(tm); err != nil {
						t.Fatalf("Time read %v, which CheckTime refuses: %v", tm, err)
					}
					consumed(t, before, r.b, AppendTime(nil, tm))
				}
			}
			if failed && (!zero || r.Len() != 0 || r.Err() != firstErr) {
				t.Fatalf("op %d after %v: zero %v, %d bytes left, error %v", op%8, firstErr, zero, r.Len(), r.Err())
			}
			if r.Err() != nil && r.Len() != 0 {
				t.Fatalf("op %d failed with %v and left %d bytes", op%8, r.Err(), r.Len())
			}
		}
	})
}

// consumed fails t unless the read that took before to after consumed
// exactly want.
func consumed(t *testing.T, before, after, want []byte) {
	t.Helper()
	if n := len(before) - len(after); !bytes.Equal(before[:n], want) {
		t.Fatalf("read consumed %x, its value is spelled %x", before[:n], want)
	}
}

// TestTimeZones: Time reads an offset of 0 as UTC, the local zone's
// offset at that instant as the local zone, and any other as a fixed
// zone; each reads back to the same instant and offset.
func TestTimeZones(t *testing.T) {
	at := time.Date(2016, 3, 29, 12, 0, 0, 7, time.UTC)
	_, localOff := at.Local().Zone()
	for _, tm := range []time.Time{at, at.Local(), at.In(time.FixedZone("", localOff+150))} {
		r := NewReader(AppendTime(nil, tm))
		got := r.Time()
		_, want := tm.Zone()
		_, off := got.Zone()
		if r.Err() != nil || !got.Equal(tm) || off != want {
			t.Errorf("%v read back as %v (%v)", tm, got, r.Err())
		}
		switch {
		case want == 0 && got.Location() != time.UTC:
			t.Errorf("offset 0 read back in %v", got.Location())
		case want != 0 && want == localOff && got.Location() != time.Local:
			t.Errorf("the local offset read back in %v", got.Location())
		}
	}
	for _, tm := range []time.Time{
		at.In(time.FixedZone("", 24*3600)),
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(-1, 12, 31, 0, 0, 0, 0, time.UTC),
	} {
		r := NewReader(AppendTime(nil, tm))
		if got := r.Time(); r.Err() == nil || CheckTime(tm) == nil {
			t.Errorf("%v read back as %v; CheckTime %v", tm, got, CheckTime(tm))
		}
	}
}
