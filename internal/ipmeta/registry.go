package ipmeta

import (
	"fmt"
	"net/netip"
	"sort"

	"adaudit/internal/stats"
)

// OrgKind classifies the organisation owning an IP range.
type OrgKind int

const (
	// KindISP is a residential/business access provider.
	KindISP OrgKind = iota
	// KindMobile is a mobile carrier.
	KindMobile
	// KindHosting is a data-center, cloud or hosting provider. The ad
	// industry treats traffic from such ranges as likely invalid (MRC /
	// JICWEBS invalid-traffic guidelines the paper cites).
	KindHosting
	// KindVPN is a hosting range known to serve consumer VPN exits —
	// the exception the MRC guidelines carve out of the data-center rule.
	KindVPN
	// KindEducation is a university or research network.
	KindEducation
)

// String returns the kind name.
func (k OrgKind) String() string {
	switch k {
	case KindISP:
		return "isp"
	case KindMobile:
		return "mobile"
	case KindHosting:
		return "hosting"
	case KindVPN:
		return "vpn"
	case KindEducation:
		return "education"
	default:
		return fmt.Sprintf("OrgKind(%d)", int(k))
	}
}

// Org is an organisation owning one or more IP ranges.
type Org struct {
	Name    string
	Kind    OrgKind
	Country string // ISO 3166-1 alpha-2
}

// Record is the metadata returned for an IP lookup — the equivalent of a
// MaxMind ISP-database row.
type Record struct {
	Org    Org
	Prefix netip.Prefix // the matched range
}

// DB is an IP-metadata database: an LPM table from ranges to organisation
// records. It is immutable after Build and safe for concurrent lookups.
type DB struct {
	tree *RadixTree[Record]
	orgs []Org
}

// Builder accumulates ranges for a DB.
type Builder struct {
	tree *RadixTree[Record]
	orgs []Org
	err  error
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{tree: NewRadixTree[Record]()}
}

// Add registers prefix as owned by org. Errors are deferred to Build.
func (b *Builder) Add(prefix netip.Prefix, org Org) *Builder {
	if b.err != nil {
		return b
	}
	if err := b.tree.Insert(prefix, Record{Org: org, Prefix: prefix.Masked()}); err != nil {
		b.err = err
		return b
	}
	b.orgs = append(b.orgs, org)
	return b
}

// Build finalises the database.
func (b *Builder) Build() (*DB, error) {
	if b.err != nil {
		return nil, b.err
	}
	return &DB{tree: b.tree, orgs: b.orgs}, nil
}

// Lookup returns the record for the longest prefix containing addr.
func (db *DB) Lookup(addr netip.Addr) (Record, bool) {
	return db.tree.Lookup(addr)
}

// DenyList is a set of CIDR ranges considered deny-listed hosting space —
// the stand-in for the Botlab deny-hosting-IP list (130M+ data-center IPs
// across the top-100 providers) the paper uses as its second detection
// stage.
type DenyList struct {
	tree *RadixTree[struct{}]
}

// NewDenyList returns a deny list over the given prefixes.
func NewDenyList(prefixes []netip.Prefix) (*DenyList, error) {
	t := NewRadixTree[struct{}]()
	for _, p := range prefixes {
		if err := t.Insert(p, struct{}{}); err != nil {
			return nil, err
		}
	}
	return &DenyList{tree: t}, nil
}

// Contains reports whether addr falls in a deny-listed range.
func (d *DenyList) Contains(addr netip.Addr) bool {
	_, ok := d.tree.Lookup(addr)
	return ok
}

// Len returns the number of deny-listed ranges.
func (d *DenyList) Len() int { return d.tree.Len() }

// Universe is a fully generated synthetic IP world: a metadata DB, the
// deny list derived from its hosting providers, and per-country address
// pools to draw simulated users and bots from.
type Universe struct {
	DB       *DB
	DenyList *DenyList

	// pools maps country -> kind -> prefixes for address sampling.
	pools map[string]map[OrgKind][]netip.Prefix
	rng   *stats.RNG
	// trueHosting names the organisations that genuinely run data
	// centers, regardless of how the provider database labels them.
	trueHosting map[string]bool
}

// UniverseConfig controls synthetic registry generation.
type UniverseConfig struct {
	Seed int64
	// Countries to generate address space for (ISO alpha-2). Defaults to
	// the paper's campaign geos: ES, RU, US.
	Countries []string
	// ISPsPerCountry is the number of access providers per country
	// (default 12).
	ISPsPerCountry int
	// HostingProviders is the number of global hosting/cloud providers
	// (default 40; the Botlab list covers the top 100).
	HostingProviders int
	// DenyListCoverage is the fraction of hosting providers present on
	// the deny list (default 0.75). The remainder model the providers the
	// paper had to verify manually via their websites.
	DenyListCoverage float64
	// VPNFraction is the fraction of hosting providers that are VPN
	// services (the MRC exception); default 0.05.
	VPNFraction float64
	// MislabeledHostingFraction is the fraction of hosting providers the
	// provider database mislabels as plain ISPs — the real-world MaxMind
	// gaps that make the paper's deny-list and manual-verification
	// stages necessary (default 0.20).
	MislabeledHostingFraction float64
}

func (c *UniverseConfig) applyDefaults() {
	if len(c.Countries) == 0 {
		c.Countries = []string{"ES", "RU", "US"}
	}
	if c.ISPsPerCountry == 0 {
		c.ISPsPerCountry = 12
	}
	if c.HostingProviders == 0 {
		c.HostingProviders = 40
	}
	if c.DenyListCoverage == 0 {
		c.DenyListCoverage = 0.75
	}
	if c.VPNFraction == 0 {
		c.VPNFraction = 0.05
	}
	if c.MislabeledHostingFraction == 0 {
		c.MislabeledHostingFraction = 0.20
	}
}

// NewUniverse generates a synthetic IP universe. Generation is
// deterministic in cfg.Seed.
func NewUniverse(cfg UniverseConfig) (*Universe, error) {
	cfg.applyDefaults()
	rng := stats.NewRNG(cfg.Seed).Fork("ipmeta")
	b := NewBuilder()
	pools := make(map[string]map[OrgKind][]netip.Prefix)
	var denied []netip.Prefix

	// Carve ISP space out of 10.0.0.0/8-style blocks per country:
	// country i gets 16 /12s starting at i<<4 within 11.0.0.0..., here we
	// simply stripe /12 blocks across a base /6 so ranges never collide.
	next := uint32(10) << 24 // start at 10.0.0.0, stride /12 blocks
	alloc := func() netip.Prefix {
		p := netip.PrefixFrom(uint32ToIPv4(next), 12)
		next += 1 << 20 // /12 = 2^20 addresses
		return p
	}

	for _, country := range cfg.Countries {
		pools[country] = make(map[OrgKind][]netip.Prefix)
		for i := 0; i < cfg.ISPsPerCountry; i++ {
			kind := KindISP
			if rng.Bool(0.25) {
				kind = KindMobile
			}
			org := Org{
				Name:    fmt.Sprintf("%s-%s-%02d", country, kind, i),
				Kind:    kind,
				Country: country,
			}
			p := alloc()
			b.Add(p, org)
			pools[country][kind] = append(pools[country][kind], p)
		}
		// One education/research network per country (the paper's
		// campaigns target research keywords).
		edu := Org{Name: fmt.Sprintf("%s-edu-net", country), Kind: KindEducation, Country: country}
		p := alloc()
		b.Add(p, edu)
		pools[country][KindEducation] = append(pools[country][KindEducation], p)
	}

	// Hosting providers are global; attribute them to US for simplicity
	// of the registry, but pool them under the pseudo-country "ZZ" so the
	// simulator can draw bot traffic irrespective of campaign geo. A
	// fraction of them are mislabelled as plain ISPs in the provider
	// database (MaxMind-style gaps): those are only catchable by the
	// deny list or by manually verifying the provider's website.
	pools["ZZ"] = make(map[OrgKind][]netip.Prefix)
	trueHosting := map[string]bool{}
	for i := 0; i < cfg.HostingProviders; i++ {
		kind := KindHosting
		if rng.Bool(cfg.VPNFraction) {
			kind = KindVPN
		}
		name := fmt.Sprintf("dc-%02d.example", i)
		registeredKind := kind
		if kind == KindHosting && rng.Bool(cfg.MislabeledHostingFraction) {
			registeredKind = KindISP
		}
		org := Org{
			Name:    name,
			Kind:    registeredKind,
			Country: "US",
		}
		p := alloc()
		b.Add(p, org)
		// Traffic pools follow the ground truth, not the registry label.
		pools["ZZ"][kind] = append(pools["ZZ"][kind], p)
		if kind == KindHosting {
			trueHosting[name] = true
			if rng.Bool(cfg.DenyListCoverage) {
				denied = append(denied, p)
			}
		}
	}

	db, err := b.Build()
	if err != nil {
		return nil, err
	}
	dl, err := NewDenyList(denied)
	if err != nil {
		return nil, err
	}
	return &Universe{
		DB:          db,
		DenyList:    dl,
		pools:       pools,
		rng:         rng.Fork("sampling"),
		trueHosting: trueHosting,
	}, nil
}

// ManualVerify reports whether manually inspecting the organisation's
// website (the paper's third detection stage) reveals it offers
// data-center services. In the synthetic universe that is the ground
// truth the provider database may have mislabelled.
func (u *Universe) ManualVerify(rec Record) bool {
	return u.trueHosting[rec.Org.Name]
}

// DrawAddr draws an address from the given country's pools of the
// given kind using the caller's RNG stream — the concurrency-safe form
// used by parallel campaign simulations, where each campaign owns its
// deterministic stream. It returns an error if no pool matches.
func (u *Universe) DrawAddr(rng *stats.RNG, country string, kind OrgKind) (netip.Addr, error) {
	pool := u.pools[country][kind]
	if len(pool) == 0 {
		return netip.Addr{}, fmt.Errorf("ipmeta: no %v ranges for country %s", kind, country)
	}
	p := pool[rng.Intn(len(pool))]
	return randomAddrIn(rng, p), nil
}

// DrawHostingAddr draws an address from a random hosting provider
// (data-center) range — the source of simulated bot traffic — using
// the caller's RNG stream.
func (u *Universe) DrawHostingAddr(rng *stats.RNG) (netip.Addr, error) {
	return u.DrawAddr(rng, "ZZ", KindHosting)
}

// DrawResidentialAddr draws an ISP, mobile or education address in the
// given country, weighted toward fixed-line ISPs, using the caller's
// RNG stream.
func (u *Universe) DrawResidentialAddr(rng *stats.RNG, country string) (netip.Addr, error) {
	kinds := []OrgKind{KindISP, KindISP, KindISP, KindMobile, KindEducation}
	for attempts := 0; attempts < len(kinds)*2; attempts++ {
		kind := kinds[rng.Intn(len(kinds))]
		if addr, err := u.DrawAddr(rng, country, kind); err == nil {
			return addr, nil
		}
	}
	return netip.Addr{}, fmt.Errorf("ipmeta: no residential ranges for country %s", country)
}

// RandomHostingAddr is DrawHostingAddr on the universe's own stream.
// Not safe for concurrent use.
func (u *Universe) RandomHostingAddr() (netip.Addr, error) {
	return u.DrawHostingAddr(u.rng)
}

// Countries returns the countries with generated residential space,
// sorted for determinism.
func (u *Universe) Countries() []string {
	var cs []string
	for c := range u.pools {
		if c != "ZZ" {
			cs = append(cs, c)
		}
	}
	sort.Strings(cs)
	return cs
}

func randomAddrIn(rng *stats.RNG, p netip.Prefix) netip.Addr {
	base := ipv4ToUint32(p.Masked().Addr())
	size := uint32(1) << (32 - p.Bits())
	// Avoid network and broadcast addresses for realism.
	off := uint32(rng.Int63n(int64(size-2))) + 1
	return uint32ToIPv4(base + off)
}
