package store

import "time"

// recLog is the impression record log: an append-only sequence of rows
// held in fixed-size chunks, so an append never copies a stored row and
// the memory held beyond the rows themselves is bounded by one chunk —
// a single slice re-copies the whole log at every growth step and
// carries up to a quarter of it as spare capacity. Positions are dense
// and stable (row i stays row i), which is what the posting lists
// index, and a row's ID is its position plus one. Not synchronised:
// Store.mu guards it.
//
// A row is not an Impression. The six columns that take few distinct
// values (campaign, creative, User-Agent, ISP, country and data-center
// verdict) are ids into dictionaries the log owns. The publisher, page
// URL, address pseudonym, user key and nonce take a new value every
// row or four, where a dictionary entry (≈ 50 bytes: its vals slot and
// its map slot) costs more than the 16-byte string header it replaces,
// and stay strings. Readers get rows back as Impressions built into
// one value per call (load).
type recLog struct {
	chunks [][]row
	n      int

	campaign, creative, userAgent, isp, country, dataCenter dict
}

// row is one stored impression. Field order packs the flag into the
// ids' padding: 168 bytes, against the 248 of an Impression. The
// timestamp stays a time.Time, so a read gives back its monotonic
// reading and its location too.
type row struct {
	campaign, creative, userAgent, isp, country, dataCenter uint32
	visibilityMeasured                                      bool

	publisher, pageURL, ipPseudonym, userKey, nonce string
	timestamp                                       time.Time
	exposure                                        time.Duration
	mouseMoves, clicks                              int
	maxVisibleFraction                              float64
}

// dict is one column's dictionary: append-only, an id is the index of
// its value.
type dict struct {
	vals []string
	ids  map[string]uint32
	last uint32 // the id interned last: consecutive rows often repeat it
}

// intern returns v's id, adding v if it is new.
func (d *dict) intern(v string) uint32 {
	if int(d.last) < len(d.vals) && d.vals[d.last] == v {
		return d.last
	}
	id, ok := d.ids[v]
	if !ok {
		if d.ids == nil {
			d.ids = map[string]uint32{}
		}
		id = uint32(len(d.vals))
		d.vals = append(d.vals, v)
		d.ids[v] = id
	}
	d.last = id
	return id
}

const (
	// recChunk rows make a chunk: 1,024 rows of 168 bytes, 42 pages.
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
func (l *recLog) at(i int) *row {
	return &l.chunks[i>>recChunkShift][i&(recChunk-1)]
}

// append stores im as row len(), interning its dictionary columns.
func (l *recLog) append(im *Impression) {
	c := l.n >> recChunkShift
	if c == len(l.chunks) {
		size := recChunk
		if c == 0 {
			size = recFirstChunk
		}
		l.chunks = append(l.chunks, make([]row, 0, size))
	}
	ch := l.chunks[c]
	if len(ch) == cap(ch) { // only the first chunk starts short
		grown := make([]row, len(ch), min(2*cap(ch), recChunk))
		copy(grown, ch)
		ch = grown
	}
	l.chunks[c] = append(ch, row{
		campaign:           l.campaign.intern(im.CampaignID),
		creative:           l.creative.intern(im.CreativeID),
		userAgent:          l.userAgent.intern(im.UserAgent),
		isp:                l.isp.intern(im.ISP),
		country:            l.country.intern(im.Country),
		dataCenter:         l.dataCenter.intern(im.DataCenter),
		visibilityMeasured: im.VisibilityMeasured,
		publisher:          im.Publisher,
		pageURL:            im.PageURL,
		ipPseudonym:        im.IPPseudonym,
		userKey:            im.UserKey,
		nonce:              im.Nonce,
		timestamp:          im.Timestamp,
		exposure:           im.Exposure,
		mouseMoves:         im.MouseMoves,
		clicks:             im.Clicks,
		maxVisibleFraction: im.MaxVisibleFraction,
	})
	l.n++
}

// load writes row i into im, ID included.
func (l *recLog) load(i int, im *Impression) { l.build(l.at(i), i, im) }

// build writes r, row i, into im.
func (l *recLog) build(r *row, i int, im *Impression) {
	im.ID = int64(i + 1)
	im.CampaignID = l.campaign.vals[r.campaign]
	im.CreativeID = l.creative.vals[r.creative]
	im.Publisher = r.publisher
	im.PageURL = r.pageURL
	im.UserAgent = l.userAgent.vals[r.userAgent]
	im.IPPseudonym = r.ipPseudonym
	im.UserKey = r.userKey
	im.ISP = l.isp.vals[r.isp]
	im.Country = l.country.vals[r.country]
	im.DataCenter = l.dataCenter.vals[r.dataCenter]
	im.Timestamp = r.timestamp
	im.Exposure = r.exposure
	im.MouseMoves = r.mouseMoves
	im.Clicks = r.clicks
	im.VisibilityMeasured = r.visibilityMeasured
	im.MaxVisibleFraction = r.maxVisibleFraction
	im.Nonce = r.nonce
}

// each calls fn on every row in order, each built into the same
// Impression, until fn returns false.
func (l *recLog) each(fn func(*Impression) bool) {
	var im Impression
	for c, ch := range l.chunks {
		for j := range ch {
			l.build(&ch[j], c<<recChunkShift+j, &im)
			if !fn(&im) {
				return
			}
		}
	}
}

// mergeState returns the part of row i a merge changes.
func (l *recLog) mergeState(i int) MergePrev {
	r := l.at(i)
	return MergePrev{r.exposure, r.mouseMoves, r.clicks, r.visibilityMeasured, r.maxVisibleFraction}
}

// setMergeState writes the outcome of a merge into row i.
func (l *recLog) setMergeState(i int, m MergePrev) {
	r := l.at(i)
	r.exposure, r.mouseMoves, r.clicks = m.Exposure, m.MouseMoves, m.Clicks
	r.visibilityMeasured, r.maxVisibleFraction = m.VisibilityMeasured, m.MaxVisibleFraction
}
