package store

import "testing"

func TestRecLogPositionsAndOrder(t *testing.T) {
	var l recLog
	const n = 3*recChunk + 17
	for i := 0; i < n; i++ {
		if l.len() != i {
			t.Fatalf("len = %d before append %d", l.len(), i)
		}
		l.append(&Impression{ID: int64(i + 1)})
	}
	for _, i := range []int{0, 1, recFirstChunk, recChunk - 1, recChunk, 2*recChunk + 5, n - 1} {
		if got := l.at(i).ID; got != int64(i+1) {
			t.Fatalf("at(%d) holds record %d", i, got)
		}
	}
	next := int64(1)
	l.each(func(im *Impression) bool {
		if im.ID != next {
			t.Fatalf("each visited record %d, want %d", im.ID, next)
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
	// at hands out the stored row, not a copy: Merge writes through it.
	l.at(recChunk + 1).Clicks = 9
	if l.at(recChunk+1).Clicks != 9 {
		t.Fatal("at returned a copy")
	}
}

// TestRecLogCostsWhatItHolds: a small log holds a small first chunk, a
// large one never moves a row of a filled chunk and never holds more
// than a chunk of spare rows.
func TestRecLogCostsWhatItHolds(t *testing.T) {
	var l recLog
	for i := 0; i < 10; i++ {
		l.append(&Impression{ID: int64(i + 1)})
	}
	if len(l.chunks) != 1 || cap(l.chunks[0]) > 16 {
		t.Fatalf("ten records sit in %d chunks, the first of capacity %d", len(l.chunks), cap(l.chunks[0]))
	}
	for i := 10; i < recChunk; i++ {
		l.append(&Impression{ID: int64(i + 1)})
	}
	if cap(l.chunks[0]) != recChunk {
		t.Fatalf("the filled first chunk has capacity %d, want %d", cap(l.chunks[0]), recChunk)
	}
	first, held := l.at(0), 0
	for i := recChunk; i < 5*recChunk+1; i++ {
		l.append(&Impression{ID: int64(i + 1)})
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
