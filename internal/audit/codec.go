package audit

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"

	"adaudit/internal/bytecodec"
)

// The packed form of a state (export formats 3 and 4; DESIGN §17 has the layout
// as a table). Integers are uvarints (zigzag varints where a value may be
// negative), times and floats raw little-endian 8 bytes so every float
// crosses bit-exact, bools one byte each. A string table is its count,
// the strings' lengths, then their bytes back to back.
//
// User keys are "<ip pseudonym>|<user agent>": thousands of users share
// a handful of user agents, and what precedes the '|' is an IP the state
// lists anyway. So a key is written as two references — the head, what
// precedes its first '|' (the whole key if it has none), into one table
// that starts with the IPs; the tail, what follows, into another (0: no
// '|') — which is exact for any string whatever. Map keys are written
// sorted, so one state has one encoding.
//
//	slots, clicks, first seen, last seen
//	heads       string table: the IPs, sorted, then every other key head
//	ips         count (that many leading heads), then one bool per IP
//	tails       string table
//	users       count, then head and tail reference per key (the dictionary, in id order)
//	publishers  string table                                 (likewise)
//	verdicts    string table                                 (likewise)
//	convs       count, head and tail reference per key, then one count per key
//	user id, publisher id, verdict id, time, exposure, visibility
//	measured, visible fraction: one column each, one entry per slot

// minSlotBytes is the least one slot adds to an encoding: three ids,
// time, exposure, measured, fraction.
const minSlotBytes = 3 + 8 + 8 + 1 + 8

// maxKeyBytes bounds the user keys of one state, users and converting
// users together. Sharing heads and tails is compression — a few
// kilobytes of encoding can spell out gigabytes of keys — and a decoder
// of compressed input has to refuse a bomb. No ratio to the encoding's
// size would do: nothing on ingest bounds a User-Agent, so a state whose
// users share a long one is legitimate at any ratio. The bound is
// therefore absolute (the size of the largest export a router reads,
// shardmerge's maxExportBytes) and the encoder keeps to it too:
// what AppendBinary writes, UnmarshalBinary reads.
const maxKeyBytes = 256 << 20

// keySplitter cuts keys at their first '|' into an interned head and
// tail, and adds up the keys' bytes.
type keySplitter struct {
	heads, tails dict
	bytes        int
}

// split returns each key's head reference, then its tail reference plus
// one (0: the key has no '|').
func (k *keySplitter) split(keys []string) []int32 {
	refs := make([]int32, 0, 2*len(keys))
	for _, key := range keys {
		head, tail, found := strings.Cut(key, "|")
		k.bytes += len(key)
		refs = append(refs, k.heads.intern(head), 0)
		if found {
			refs[len(refs)-1] = k.tails.intern(tail) + 1
		}
	}
	return refs
}

// stringsSize is the encoded size of a string table.
func stringsSize(strs []string) int {
	size := bytecodec.UvarintLen(uint64(len(strs)))
	for _, s := range strs {
		size += bytecodec.StringLen(s)
	}
	return size
}

func appendStrings(b []byte, strs []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(strs)))
	for _, s := range strs {
		b = binary.AppendUvarint(b, uint64(len(s)))
	}
	for _, s := range strs {
		b = append(b, s...)
	}
	return b
}

func appendUvarints(b []byte, col []int32) []byte {
	for _, v := range col {
		b = binary.AppendUvarint(b, uint64(v))
	}
	return b
}

func appendFloats(b []byte, col []float64) []byte {
	for _, f := range col {
		b = bytecodec.AppendFloat64(b, f)
	}
	return b
}

// sortedKeys returns m's keys in order, in a slice with room for extra more.
func sortedKeys[V any](m map[string]V, extra int) []string {
	keys := make([]string, 0, len(m)+extra)
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Pack lays out the state's packed form without writing it: size bounds
// the form and write appends it. A caller that writes many states
// (streamaudit's export container) sizes its buffer from their bounds and
// grows it once. The state must not change until write has run. Pack
// fails only for a state that holds more than maxKeyBytes of user keys,
// which UnmarshalBinary would refuse.
func (s *State) Pack() (size int, write func(b []byte) []byte, err error) {
	c := &s.cols
	ips, convs := sortedKeys(c.IPs, len(c.Users.keys)), sortedKeys(c.Convs, 0)
	k := keySplitter{tails: dict{ids: map[string]int32{}}}
	k.heads = dict{keys: ips, ids: make(map[string]int32, cap(ips))}
	for ref, ip := range ips {
		k.heads.ids[ip] = int32(ref)
	}
	userRefs, convRefs := k.split(c.Users.keys), k.split(convs)
	if k.bytes > maxKeyBytes {
		return 0, nil, fmt.Errorf("audit: state encoding: %d bytes of user keys, the format carries %d", k.bytes, maxKeyBytes)
	}
	heads, tails := k.heads.keys, k.tails.keys

	refWidth := bytecodec.UvarintLen(uint64(len(heads))) + bytecodec.UvarintLen(uint64(len(tails)))
	idWidth := bytecodec.UvarintLen(uint64(len(c.Users.keys))) + bytecodec.UvarintLen(uint64(len(c.Pubs.keys))) +
		bytecodec.UvarintLen(uint64(len(c.Verdicts.keys)))
	size = 10*binary.MaxVarintLen64 +
		stringsSize(heads) + len(ips) + stringsSize(tails) + len(c.Users.keys)*refWidth +
		stringsSize(c.Pubs.keys) + stringsSize(c.Verdicts.keys) + len(convs)*(refWidth+binary.MaxVarintLen64) +
		len(c.UserOf)*(idWidth+minSlotBytes-3)

	return size, func(b []byte) []byte {
		b = binary.AppendUvarint(b, uint64(len(c.UserOf)))
		b = binary.AppendVarint(b, int64(c.Clicks))
		b = bytecodec.AppendTime(bytecodec.AppendTime(b, c.FirstSeen), c.LastSeen)
		b = appendStrings(b, heads)
		b = binary.AppendUvarint(b, uint64(len(ips)))
		for _, ip := range ips {
			b = bytecodec.AppendBool(b, c.IPs[ip])
		}
		b = appendStrings(b, tails)
		b = appendUvarints(binary.AppendUvarint(b, uint64(len(c.Users.keys))), userRefs)
		b = appendStrings(b, c.Pubs.keys)
		b = appendStrings(b, c.Verdicts.keys)
		b = appendUvarints(binary.AppendUvarint(b, uint64(len(convs))), convRefs)
		for _, user := range convs {
			b = binary.AppendVarint(b, int64(c.Convs[user]))
		}
		b = appendUvarints(appendUvarints(appendUvarints(b, c.UserOf), c.PubOf), c.VerdictOf)
		for _, t := range c.Times {
			b = binary.LittleEndian.AppendUint64(b, uint64(t))
		}
		b = appendFloats(b, c.Exposures)
		for _, m := range c.VisMeasured {
			b = bytecodec.AppendBool(b, m)
		}
		return appendFloats(b, c.VisFrac)
	}, nil
}

// AppendBinary appends the state's packed form to b, growing b once: the
// size of every part is known before it is written. The tallies are
// derived and stay home. It fails as Pack does.
func (s *State) AppendBinary(b []byte) ([]byte, error) {
	size, write, err := s.Pack()
	if err != nil {
		return b, err
	}
	return write(slices.Grow(b, size)), nil
}

// reader consumes a packed state: the byte codec's reader, plus the
// tables, keys, dictionaries and columns the format is made of.
type reader struct {
	bytecodec.Reader
	keyBytes int // of user keys joined so far
}

func (r *reader) fail(format string, args ...any) { r.Fail(fmt.Errorf(format, args...)) }

// strings reads a string table. The strings share one backing string,
// so a table costs two allocations however many strings it holds.
func (r *reader) strings() []string {
	n := r.Count(1)
	lens, total := r.Reader, 0 // the lengths are read twice: to find the bytes, then to cut them
	for i := 0; i < n; i++ {
		total += r.Count(1)
	}
	blob := string(r.Bytes(uint64(total)))
	if r.Err() != nil {
		return nil
	}
	strs := make([]string, n)
	for i := range strs {
		l := int(lens.Uvarint())
		strs[i], blob = blob[:l], blob[l:]
	}
	return strs
}

// keys reads a count and that many head and tail references, joining
// each key in one backing string.
func (r *reader) keys(heads, tails []string) []string {
	n := r.Count(2)
	refs, total := r.Reader, 0 // read twice: to size the backing string, then to fill it
	for i := 0; i < n; i++ {
		head, tail := r.Uvarint(), r.Uvarint()
		if head >= uint64(len(heads)) || tail > uint64(len(tails)) {
			r.fail("key %d is head %d of %d and tail %d of %d", i, head, len(heads), tail, len(tails))
			return nil
		}
		if total += len(heads[head]); tail > 0 {
			total += 1 + len(tails[tail-1])
		}
		if r.keyBytes+total > maxKeyBytes {
			r.fail("more than the %d bytes of user keys the format carries", maxKeyBytes)
			return nil
		}
	}
	r.keyBytes += total
	var sb strings.Builder
	sb.Grow(total)
	keys := make([]string, n)
	for i := range keys {
		start := sb.Len()
		sb.WriteString(heads[refs.Uvarint()])
		if tail := refs.Uvarint(); tail > 0 {
			sb.WriteByte('|')
			sb.WriteString(tails[tail-1])
		}
		keys[i] = sb.String()[start:] // sb never regrows: every key is a substring of its final string
	}
	return keys
}

// dict indexes a dictionary's keys as read, rejecting a repeated key,
// which would give one string two ids.
func (r *reader) dict(name string, keys []string) dict {
	d := dict{keys: keys, ids: make(map[string]int32, len(keys))}
	if len(keys) > math.MaxInt32 {
		r.fail("%d %ss", len(keys), name)
		return d
	}
	for id, key := range keys {
		d.ids[key] = int32(id)
	}
	if len(d.ids) != len(keys) {
		r.fail("dictionary of %d %ss repeats one", len(keys), name)
	}
	return d
}

// ids reads the n slots' ids into d, every one of which must be in the
// dictionary, and every dictionary entry in some slot.
func (r *reader) ids(n int, name string, d *dict) []int32 {
	col, used := make([]int32, n), make([]bool, len(d.keys))
	for slot := range col {
		id := r.Uvarint()
		if id >= uint64(len(used)) {
			r.fail("slot %d has %s id %d, dictionary holds %d", slot, name, id, len(used))
			return nil
		}
		col[slot], used[id] = int32(id), true
	}
	if id := slices.Index(used, false); id >= 0 && r.Err() == nil {
		r.fail("%s %q is in the dictionary but in no slot", name, d.keys[id])
	}
	return col
}

func (r *reader) bools(n int, name string) []bool {
	col := make([]bool, n)
	for i, v := range r.Bytes(uint64(n)) {
		if v > 1 {
			r.fail("%s %d is byte %d, neither 0 nor 1", name, i, v)
			return nil
		}
		col[i] = v == 1
	}
	return col
}

func (r *reader) times(n int) []int64 {
	col, raw := make([]int64, n), r.Bytes(8*uint64(n))
	for i := range len(raw) / 8 {
		col[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return col
}

// floats reads n floats. NaN and the infinities are refused: no state
// built by Insert and Update holds one, a NaN is not even equal to
// itself, and no JSON view of a report could carry either.
func (r *reader) floats(n int, name string) []float64 {
	col, raw := make([]float64, n), r.Bytes(8*uint64(n))
	for i := range len(raw) / 8 {
		col[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		if math.IsNaN(col[i]) || math.IsInf(col[i], 0) {
			r.fail("%s of slot %d is %v", name, i, col[i])
		}
	}
	return col
}

// UnmarshalBinary decodes and validates a state from outside the
// process: every count fits the bytes that remain before anything is
// allocated for it, every id is inside its dictionary and every
// dictionary entry used, no key twice in any dictionary or map, bools 0
// or 1, floats finite, no more than maxKeyBytes of user keys, not a byte
// missing or left over. An encoding that fails is rejected whole and s
// is left alone; one that passes cannot make a fold index out of range.
// Keys are substrings of a few backing strings, so decoding costs a
// constant number of allocations.
func (s *State) UnmarshalBinary(b []byte) error {
	if err := s.unmarshal(b); err != nil {
		return fmt.Errorf("audit: state encoding: %w", err)
	}
	return nil
}

func (s *State) unmarshal(b []byte) error {
	r := &reader{Reader: bytecodec.NewReader(b)}
	var c columns
	n := r.Count(minSlotBytes)
	c.Clicks = int(r.Varint())
	c.FirstSeen, c.LastSeen = r.Time(), r.Time()
	heads := r.strings()
	nIPs := r.Uvarint()
	if nIPs > uint64(len(heads)) {
		r.fail("%d IPs among %d key heads", nIPs, len(heads))
		nIPs = 0
	}
	ips := heads[:nIPs]
	dc := r.bools(len(ips), "data-center flag")
	tails := r.strings()
	c.Users = r.dict("user", r.keys(heads, tails))
	c.Pubs = r.dict("publisher", r.strings())
	c.Verdicts = r.dict("verdict", r.strings())
	convs := r.keys(heads, tails)
	if r.Err() != nil {
		return r.Err()
	}
	c.IPs, c.Convs = make(map[string]bool, len(ips)), make(map[string]int, len(convs))
	for i, ip := range ips {
		c.IPs[ip] = dc[i]
	}
	conversions := 0
	for _, user := range convs {
		k := int(r.Varint())
		c.Convs[user] = k
		conversions += k
	}
	if len(c.IPs) != len(ips) || len(c.Convs) != len(convs) {
		r.fail("an IP or a converting user is listed twice")
	}

	if r.Len()/minSlotBytes < n { // the tables were not counted when n was read
		r.fail("claims %d slots, %d bytes remain", n, r.Len())
	}
	if r.Err() != nil {
		return r.Err()
	}
	c.UserOf = r.ids(n, "user", &c.Users)
	c.PubOf = r.ids(n, "publisher", &c.Pubs)
	c.VerdictOf = r.ids(n, "verdict", &c.Verdicts)
	c.Times = r.times(n)
	c.Exposures = r.floats(n, "exposure")
	c.VisMeasured = r.bools(n, "visibility-measured flag")
	c.VisFrac = r.floats(n, "visible fraction")
	if r.Err() == nil && r.Len() > 0 {
		r.fail("%d bytes follow the last column", r.Len())
	}
	if r.Err() != nil {
		return r.Err()
	}

	*s = State{cols: c, conversions: conversions, pubImps: make([]int32, len(c.Pubs.keys))}
	for slot := 0; slot < n; slot++ {
		s.count(slot, 1)
	}
	return nil
}
