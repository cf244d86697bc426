package store

// recLog is the impression record log: an append-only sequence of rows
// held in fixed-size chunks, so an append never copies a stored row and
// the memory held beyond the rows themselves is bounded by one chunk —
// a single slice re-copies the whole log at every growth step and
// carries up to a quarter of it as spare capacity. Positions are dense
// and stable (row i stays row i), which is what the posting lists
// index. Not synchronised: Store.mu guards it.
type recLog struct {
	chunks [][]Impression
	n      int
}

const (
	// recChunk rows make a chunk: 1,024 rows of 248 bytes, 31 pages.
	recChunkShift = 10
	recChunk      = 1 << recChunkShift
	// recFirstChunk is the first chunk's initial capacity; it doubles
	// up to recChunk, so a store of ten records costs ten records
	// (tests and the simulator build many small stores).
	recFirstChunk = 8
)

func (l *recLog) len() int { return l.n }

// at returns row i. The pointer stays valid until the next append
// (which may move the rows of a still-growing first chunk).
func (l *recLog) at(i int) *Impression {
	return &l.chunks[i>>recChunkShift][i&(recChunk-1)]
}

// append stores a copy of im as row len().
func (l *recLog) append(im *Impression) {
	c := l.n >> recChunkShift
	if c == len(l.chunks) {
		size := recChunk
		if c == 0 {
			size = recFirstChunk
		}
		l.chunks = append(l.chunks, make([]Impression, 0, size))
	}
	ch := l.chunks[c]
	if len(ch) == cap(ch) { // only the first chunk starts short
		grown := make([]Impression, len(ch), min(2*cap(ch), recChunk))
		copy(grown, ch)
		ch = grown
	}
	l.chunks[c] = append(ch, *im)
	l.n++
}

// each calls fn on every row in order, chunk by chunk, until fn
// returns false.
func (l *recLog) each(fn func(*Impression) bool) {
	for _, ch := range l.chunks {
		for i := range ch {
			if !fn(&ch[i]) {
				return
			}
		}
	}
}
