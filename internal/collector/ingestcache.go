package collector

import (
	"net/netip"
	"sync"

	"adaudit/internal/beacon"
	"adaudit/internal/gen2"
	"adaudit/internal/ipmeta"
)

// ingestCacheLimit is the per-generation size bound of each ingest
// cache map. Two generations are live, so at most 2x this many entries
// are remembered per cache.
const ingestCacheLimit = 1 << 15

// enrichment is the cached per-address result of the IP pipeline: LPM
// metadata lookup, fraud-cascade verdict (pre-rendered to its store
// string) and pseudonym. All four are pure functions of the address
// for a given collector configuration, so caching them only skips
// recomputation — records are byte-identical either way. (The
// classifier's internal per-verdict counters then count distinct
// classifications rather than impressions; nothing outside its own
// unit tests reads them per-impression.)
type enrichment struct {
	isp, country, dataCenter, pseud string
}

// userKeyPair keys the user-key cache by the two interned strings it
// concatenates. A struct key costs no allocation to look up.
type userKeyPair struct {
	pseud, ua string
}

// ingestCache holds the bounded caches that make steady-state ingest
// allocation-free: canonical copies of the hot wire strings, address →
// enrichment, and (pseudonym, UA) → user key. One mutex guards all
// three; every critical section is a map operation or two, and the
// binary decode path batches its intern lookups under a single
// acquisition. There is deliberately no page URL → publisher cache:
// page URLs barely repeat (1.3 % hits on the paper dataset), and
// beacon.Payload.Publisher reads an ordinary URL's host for less than
// hashing the URL costs.
type ingestCache struct {
	mu  sync.Mutex
	str *gen2.Map[string, string]
	enr *gen2.Map[netip.Addr, enrichment]
	uk  *gen2.Map[userKeyPair, string]
}

func newIngestCache() *ingestCache {
	return &ingestCache{
		str: gen2.New[string, string](ingestCacheLimit),
		enr: gen2.New[netip.Addr, enrichment](ingestCacheLimit),
		uk:  gen2.New[userKeyPair, string](ingestCacheLimit),
	}
}

// internLocked returns the canonical copy of b, copying at most once
// per two generations. The caller holds mu.
func (ic *ingestCache) internLocked(b []byte) string {
	return gen2.Intern(ic.str, b)
}

// decodeBinary parses a binary impression message into p through the
// intern tables, holding the cache lock once for all of the payload's
// fields.
func (ic *ingestCache) decodeBinary(p *beacon.Payload, raw []byte) error {
	ic.mu.Lock()
	defer ic.mu.Unlock()
	return beacon.DecodeBinaryInto(p, raw, ic.internLocked)
}

// enrichFor runs the per-address enrichment pipeline, consulting the
// cache before paying for the LPM lookup, the fraud cascade and the
// HMAC pseudonym.
func (c *Collector) enrichFor(addr netip.Addr) enrichment {
	ic := c.icache
	ic.mu.Lock()
	enr, ok := ic.enr.Get(addr)
	ic.mu.Unlock()
	if ok {
		return enr
	}
	if c.cfg.IPDB != nil {
		if rec, ok := c.cfg.IPDB.Lookup(addr); ok {
			enr.isp, enr.country = rec.Org.Name, rec.Org.Country
		}
	}
	verdict := ipmeta.VerdictNotDataCenter
	if c.cfg.Classifier != nil {
		verdict = c.cfg.Classifier.Classify(addr)
	}
	enr.dataCenter = verdict.String()
	enr.pseud = c.cfg.Anonymizer.Pseudonym(addr)
	ic.mu.Lock()
	ic.enr.Put(addr, enr)
	ic.mu.Unlock()
	return enr
}

// userKeyFor derives (and caches) the paper's user identity for a
// pseudonym/user-agent pair, skipping the concatenation allocation on
// repeat visitors.
func (c *Collector) userKeyFor(pseud, ua string) string {
	ic := c.icache
	ic.mu.Lock()
	defer ic.mu.Unlock()
	k := userKeyPair{pseud: pseud, ua: ua}
	if uk, ok := ic.uk.Get(k); ok {
		return uk
	}
	uk := UserKey(pseud, ua)
	ic.uk.Put(k, uk)
	return uk
}
