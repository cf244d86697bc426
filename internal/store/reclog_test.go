package store

import (
	"reflect"
	"strconv"
	"testing"
	"time"
)

func TestRecLogPositionsAndOrder(t *testing.T) {
	var l recLog
	const n = 3*recChunk + 17
	for i := 0; i < n; i++ {
		if l.len() != i {
			t.Fatalf("len = %d before append %d", l.len(), i)
		}
		l.append(&Impression{UserKey: strconv.Itoa(i + 1)})
	}
	var im Impression
	for _, i := range []int{0, 1, recFirstChunk, recChunk - 1, recChunk, 2*recChunk + 5, n - 1} {
		if l.load(i, &im); im.ID != int64(i+1) || im.UserKey != strconv.Itoa(i+1) {
			t.Fatalf("load(%d) reads record %d of user %s", i, im.ID, im.UserKey)
		}
	}
	next := int64(1)
	l.each(func(im *Impression) bool {
		if im.ID != next || im.UserKey != strconv.FormatInt(next, 10) {
			t.Fatalf("each visited record %d of user %s, want %d", im.ID, im.UserKey, next)
		}
		next++
		return true
	})
	if next != n+1 {
		t.Fatalf("each visited %d rows of %d", next-1, n)
	}
	visited := 0
	l.each(func(*Impression) bool { visited++; return visited < recChunk+3 })
	if visited != recChunk+3 {
		t.Fatalf("each ran %d rows past a false at %d", visited, recChunk+3)
	}
	// A merge written through the log reads back, and touches nothing
	// else of the row.
	m := MergePrev{Exposure: time.Second, MouseMoves: 4, Clicks: 9, VisibilityMeasured: true, MaxVisibleFraction: 0.5}
	l.setMergeState(recChunk+1, m)
	if got := l.mergeState(recChunk + 1); got != m {
		t.Fatalf("merge state reads back as %+v, want %+v", got, m)
	}
	want := Impression{ID: recChunk + 2, UserKey: strconv.Itoa(recChunk + 2)}
	want.Exposure, want.MouseMoves, want.Clicks = m.Exposure, m.MouseMoves, m.Clicks
	want.VisibilityMeasured, want.MaxVisibleFraction = m.VisibilityMeasured, m.MaxVisibleFraction
	if l.load(recChunk+1, &im); im != want {
		t.Fatalf("merged row reads back as %+v, want %+v", im, want)
	}
}

// TestRowLayout pins a stored row's size: a field added to it is paid
// on every impression a shard holds, so it must move this number.
func TestRowLayout(t *testing.T) {
	if size := reflect.TypeOf(row{}).Size(); size > 168 {
		t.Fatalf("a stored row is %d bytes, over its 168-byte budget (an Impression is %d)", size, reflect.TypeOf(Impression{}).Size())
	}
}

// TestDictionaryInterning: a value keeps the id it first got, whether
// it repeats the last value or one from further back, and an empty
// string is a value like any other.
func TestDictionaryInterning(t *testing.T) {
	var d dict
	for i, c := range []struct {
		v  string
		id uint32
	}{{"a", 0}, {"a", 0}, {"", 1}, {"b", 2}, {"a", 0}, {"", 1}, {"b", 2}, {"b", 2}, {"c", 3}} {
		if got := d.intern(c.v); got != c.id {
			t.Fatalf("intern #%d of %q = %d, want %d", i, c.v, got, c.id)
		}
	}
	if want := []string{"a", "", "b", "c"}; !reflect.DeepEqual(d.vals, want) || len(d.ids) != len(want) {
		t.Fatalf("dictionary holds %q (%d ids), want %q", d.vals, len(d.ids), want)
	}
}

// TestRecLogCostsWhatItHolds: a small log holds a small first chunk, a
// large one never moves a row of a filled chunk and never holds more
// than a chunk of spare rows.
func TestRecLogCostsWhatItHolds(t *testing.T) {
	var l recLog
	for i := 0; i < 10; i++ {
		l.append(&Impression{UserKey: strconv.Itoa(i + 1)})
	}
	if len(l.chunks) != 1 || cap(l.chunks[0]) > 16 {
		t.Fatalf("ten records sit in %d chunks, the first of capacity %d", len(l.chunks), cap(l.chunks[0]))
	}
	for i := 10; i < recChunk; i++ {
		l.append(&Impression{UserKey: strconv.Itoa(i + 1)})
	}
	if cap(l.chunks[0]) != recChunk {
		t.Fatalf("the filled first chunk has capacity %d, want %d", cap(l.chunks[0]), recChunk)
	}
	first, held := l.at(0), 0
	for i := recChunk; i < 5*recChunk+1; i++ {
		l.append(&Impression{UserKey: strconv.Itoa(i + 1)})
	}
	for _, ch := range l.chunks {
		held += cap(ch)
	}
	if l.at(0) != first {
		t.Fatal("an append moved a row of a filled chunk")
	}
	if spare := held - l.len(); spare >= recChunk {
		t.Fatalf("%d rows held for %d stored: %d spare, want under one chunk (%d)", held, l.len(), spare, recChunk)
	}
}
