// Package publisher generates the synthetic publisher universe the ad
// network simulator delivers impressions to. It stands in for the Google
// Display Network inventory (2M+ publishers) and the Alexa ranking the
// paper bins publishers by in Figure 2.
//
// Each publisher carries a domain, a global popularity rank (1 = most
// popular, log-uniform across the rank space so every logarithmic rank
// bucket is populated), content topics and keywords drawn from the
// semsim taxonomy, a traffic-quality profile (bot exposure propensity)
// and an anonymity flag modelling Ad Exchange inventory partners that
// appear as "anonymous.google" in vendor reports.
package publisher

import (
	"fmt"
	"math"
	"strings"

	"adaudit/internal/semsim"
	"adaudit/internal/stats"
)

// Publisher is one site in the universe.
type Publisher struct {
	// Domain is the registrable domain, e.g. "futbolhoy483.es".
	Domain string
	// Rank is the global popularity rank (1 = most popular), the
	// analogue of the Alexa rank used in Figure 2.
	Rank int
	// Vertical is the taxonomy concept naming the site's primary
	// content vertical (e.g. "football").
	Vertical string
	// Topics are taxonomy concepts describing the content, always
	// including Vertical.
	Topics []string
	// Keywords are word forms (lemmas) the ad network associates with
	// the publisher, the analogue of AdWords' per-placement keywords.
	Keywords []string
	// BotPropensity is the probability that any given impression on
	// this publisher is rendered by data-center automation rather than
	// a human browser.
	BotPropensity float64
	// Anonymous marks Ad Exchange inventory whose identity the vendor
	// masks as "anonymous.google" in campaign reports.
	Anonymous bool
	// BrandUnsafe marks publishers in sensitive verticals (adult,
	// gambling, piracy, ...) — the sites a brand-safety blacklist is
	// supposed to catch.
	BrandUnsafe bool
	// BeaconHostile marks publishers whose page or iframe policies
	// (CSP, sandboxing, aggressive ad wrappers) prevent the injected
	// JavaScript from connecting out. All impressions on such
	// publishers are invisible to the audit — the publisher-correlated
	// component of the paper's 16.5% unlogged-publisher loss.
	BeaconHostile bool
}

// Universe is an immutable set of publishers with topic indexes. Safe
// for concurrent use after construction.
type Universe struct {
	pubs       []Publisher
	byDomain   map[string]int
	byVertical map[string][]int
	taxonomy   *semsim.Taxonomy
}

// Config controls universe generation.
type Config struct {
	Seed int64
	// NumPublishers is the inventory size (default 10000).
	NumPublishers int
	// MaxRank is the bottom of the popularity ranking (default 10M,
	// matching Figure 2's x-axis).
	MaxRank int
	// AnonymousFraction is the fraction of publishers sold as anonymous
	// Ad Exchange inventory (default 0.06).
	AnonymousFraction float64
	// HostileFraction is the fraction of publishers whose embedding
	// policies block the beacon entirely (default 0.12).
	HostileFraction float64
	// Taxonomy supplies content verticals; defaults to
	// semsim.DefaultTaxonomy().
	Taxonomy *semsim.Taxonomy
}

func (c *Config) applyDefaults() {
	if c.NumPublishers == 0 {
		c.NumPublishers = 10000
	}
	if c.MaxRank == 0 {
		c.MaxRank = 10_000_000
	}
	if c.AnonymousFraction == 0 {
		c.AnonymousFraction = 0.06
	}
	if c.HostileFraction == 0 {
		c.HostileFraction = 0.12
	}
	if c.Taxonomy == nil {
		c.Taxonomy = semsim.DefaultTaxonomy()
	}
}

// verticalProfile weights a vertical's share of the inventory and its
// traffic-quality characteristics.
type verticalProfile struct {
	concept string
	// share is the relative inventory share.
	share float64
	// botBase is the baseline bot-traffic propensity for the vertical.
	// The paper's Table 4 found sports/football inventory an order of
	// magnitude more exposed to data-center traffic than research or
	// general inventory; high-demand entertainment verticals attract
	// traffic-sourcing bots.
	botBase float64
	// tlds to draw domains from.
	tlds []string
}

// inventoryProfiles is the vertical mix of the synthetic inventory. The
// shares skew toward the long-tail content that dominates real display
// networks; campaign verticals (research, football, ...) are present in
// proportions that give the 8 paper campaigns realistic inventory pools.
var inventoryProfiles = []verticalProfile{
	{"research", 0.008, 0.010, []string{"es", "org", "edu"}},
	{"universities", 0.006, 0.008, []string{"es", "edu", "org"}},
	{"schools", 0.004, 0.008, []string{"es", "org"}},
	{"online-courses", 0.004, 0.012, []string{"com", "es"}},
	{"physics", 0.002, 0.008, []string{"org", "es"}},
	{"biology", 0.002, 0.008, []string{"org", "es"}},
	{"telematics", 0.003, 0.010, []string{"es", "com"}},
	{"computer-science", 0.004, 0.012, []string{"com", "org"}},
	{"encyclopedias", 0.003, 0.006, []string{"org"}},

	{"football", 0.060, 0.085, []string{"es", "com"}},
	{"basketball", 0.020, 0.060, []string{"es", "com"}},
	{"tennis", 0.012, 0.050, []string{"com", "es"}},
	{"formula1", 0.010, 0.055, []string{"com", "es"}},
	{"cycling", 0.008, 0.040, []string{"es", "com"}},
	{"esports", 0.010, 0.070, []string{"com", "gg"}},

	{"national-politics", 0.025, 0.015, []string{"es", "com"}},
	{"local-news", 0.075, 0.015, []string{"es", "com"}},
	{"markets", 0.015, 0.020, []string{"com", "es"}},
	{"weather", 0.012, 0.010, []string{"com", "es"}},

	{"movies", 0.030, 0.035, []string{"com", "es"}},
	{"television", 0.025, 0.030, []string{"es", "com"}},
	{"streaming", 0.020, 0.050, []string{"com", "to"}},
	{"videogames", 0.030, 0.045, []string{"com", "es"}},
	{"mobile-games", 0.020, 0.050, []string{"com"}},
	{"gossip", 0.022, 0.030, []string{"es", "com"}},
	{"humor", 0.020, 0.040, []string{"com", "es"}},

	{"hotels", 0.020, 0.015, []string{"com", "es"}},
	{"flights", 0.012, 0.015, []string{"com", "es"}},
	{"recipes", 0.040, 0.010, []string{"es", "com"}},
	{"fashion", 0.025, 0.018, []string{"com", "es"}},
	{"fitness", 0.018, 0.015, []string{"com", "es"}},
	{"medicine", 0.015, 0.010, []string{"es", "org"}},
	{"parenting", 0.015, 0.010, []string{"es", "com"}},
	{"decor", 0.015, 0.012, []string{"com", "es"}},
	{"gardening", 0.012, 0.010, []string{"es", "com"}},
	{"cars", 0.022, 0.020, []string{"es", "com"}},

	{"deals", 0.025, 0.030, []string{"com", "es"}},
	{"classifieds", 0.020, 0.020, []string{"es", "com"}},
	{"banking", 0.010, 0.012, []string{"com", "es"}},
	{"investing", 0.012, 0.025, []string{"com"}},
	{"jobs", 0.020, 0.012, []string{"es", "com"}},
	{"real-estate", 0.015, 0.012, []string{"es", "com"}},

	{"smartphones", 0.022, 0.025, []string{"com", "es"}},
	{"programming", 0.015, 0.015, []string{"com", "org", "io"}},
	{"apps", 0.015, 0.030, []string{"com"}},
	{"web-services", 0.012, 0.020, []string{"com"}},

	{"forums", 0.050, 0.035, []string{"com", "es", "net"}},
	{"blogs", 0.095, 0.030, []string{"com", "es", "net"}},
	{"file-sharing", 0.015, 0.080, []string{"com", "net", "to"}},
	{"web-tools", 0.020, 0.060, []string{"com", "net"}},

	// Brand-unsafe inventory exists in the network even if campaigns
	// rarely target it; ads land there through broad matching.
	{"adult", 0.008, 0.090, []string{"com", "xxx"}},
	{"casino", 0.006, 0.100, []string{"com", "net"}},
	{"betting", 0.006, 0.090, []string{"com", "es"}},
	{"torrents", 0.008, 0.110, []string{"net", "to"}},
}

// domain word fragments per vertical for plausible names.
var domainWords = map[string][]string{}

func init() {
	base := map[string][]string{
		"research":          {"ciencia", "research", "investiga", "labs", "descubre"},
		"universities":      {"uni", "campus", "facultad", "estudios", "academia"},
		"schools":           {"cole", "escuela", "aula", "educa"},
		"online-courses":    {"cursos", "aprende", "formacion", "mooc"},
		"physics":           {"fisica", "quantum", "cosmos"},
		"biology":           {"bio", "natura", "genoma"},
		"telematics":        {"redes", "telecom", "telematica", "fibra"},
		"computer-science":  {"informatica", "codigo", "sistemas", "devs"},
		"encyclopedias":     {"wiki", "saber", "enciclo"},
		"football":          {"futbol", "gol", "liga", "balon", "penalti", "fichajes"},
		"basketball":        {"basket", "canasta", "triple"},
		"tennis":            {"tenis", "raqueta", "ace"},
		"formula1":          {"f1", "paddock", "boxes"},
		"cycling":           {"ciclismo", "pedal", "peloton"},
		"esports":           {"esports", "gamers", "arena"},
		"national-politics": {"politica", "congreso", "actualidad"},
		"local-news":        {"diario", "noticias", "gaceta", "heraldo", "cronica"},
		"markets":           {"bolsa", "mercados", "economia"},
		"weather":           {"tiempo", "clima", "meteo"},
		"movies":            {"cine", "pelis", "estrenos"},
		"television":        {"tele", "series", "programas"},
		"streaming":         {"stream", "play", "verahora"},
		"videogames":        {"juegos", "gamer", "consola"},
		"mobile-games":      {"minijuegos", "casualplay"},
		"gossip":            {"corazon", "famosos", "salseo"},
		"humor":             {"risas", "memes", "cachondeo"},
		"hotels":            {"hoteles", "reservas", "escapadas"},
		"flights":           {"vuelos", "billetes", "aero"},
		"recipes":           {"recetas", "cocina", "sabor"},
		"fashion":           {"moda", "estilo", "tendencias"},
		"fitness":           {"fitness", "gym", "entrena"},
		"medicine":          {"salud", "medico", "clinica"},
		"parenting":         {"bebes", "padres", "crianza"},
		"decor":             {"deco", "hogar", "interiores"},
		"gardening":         {"jardin", "huerto", "plantas"},
		"cars":              {"coches", "motor", "ruedas"},
		"deals":             {"ofertas", "chollos", "descuentos"},
		"classifieds":       {"anuncios", "segundamano", "ventas"},
		"banking":           {"banca", "cuentas", "finanzas"},
		"investing":         {"inversion", "trading", "broker"},
		"jobs":              {"empleo", "trabajo", "curro"},
		"real-estate":       {"pisos", "casas", "inmo"},
		"smartphones":       {"moviles", "android", "gadgets"},
		"programming":       {"dev", "code", "stack"},
		"apps":              {"apps", "descargas"},
		"web-services":      {"correo", "buscador", "web"},
		"forums":            {"foro", "debate", "comunidad"},
		"blogs":             {"blog", "bitacora", "rincon"},
		"file-sharing":      {"descargas", "ficheros", "mega"},
		"web-tools":         {"conversor", "calculadora", "utilidades"},
		"adult":             {"hot", "adultos", "xpics"},
		"casino":            {"casino", "slots", "ruleta"},
		"betting":           {"apuestas", "cuotas", "bet"},
		"torrents":          {"torrent", "descargagratis", "pelisgratis"},
	}
	domainWords = base
}

// NewUniverse generates a deterministic publisher universe.
func NewUniverse(cfg Config) (*Universe, error) {
	cfg.applyDefaults()
	if cfg.NumPublishers < len(inventoryProfiles) {
		return nil, fmt.Errorf("publisher: need at least %d publishers, got %d",
			len(inventoryProfiles), cfg.NumPublishers)
	}
	rng := stats.NewRNG(cfg.Seed).Fork("publishers")

	u := &Universe{
		byDomain:   make(map[string]int, cfg.NumPublishers),
		byVertical: map[string][]int{},
		taxonomy:   cfg.Taxonomy,
	}

	weights := make([]float64, len(inventoryProfiles))
	for i, p := range inventoryProfiles {
		weights[i] = p.share
		if !cfg.Taxonomy.HasConcept(p.concept) {
			return nil, fmt.Errorf("publisher: vertical %q missing from taxonomy", p.concept)
		}
	}

	ranks := sampleDistinctRanks(rng, cfg.NumPublishers, cfg.MaxRank)
	for i := 0; i < cfg.NumPublishers; i++ {
		prof := inventoryProfiles[stats.WeightedPick(rng, weights)]
		pub := buildPublisher(rng, cfg, prof, ranks[i], i)
		// Regenerate on (rare) domain collision.
		for _, dup := u.byDomain[pub.Domain]; dup; _, dup = u.byDomain[pub.Domain] {
			pub.Domain = fmt.Sprintf("%s%d.%s", pub.Domain[:strings.Index(pub.Domain, ".")],
				rng.Intn(10), pub.Domain[strings.Index(pub.Domain, ".")+1:])
		}
		u.byDomain[pub.Domain] = len(u.pubs)
		u.byVertical[pub.Vertical] = append(u.byVertical[pub.Vertical], len(u.pubs))
		u.pubs = append(u.pubs, pub)
	}
	return u, nil
}

// sampleDistinctRanks draws n distinct ranks in [1, maxRank],
// log-uniformly so every logarithmic popularity bucket is populated.
func sampleDistinctRanks(rng *stats.RNG, n, maxRank int) []int {
	seen := make(map[int]struct{}, n)
	ranks := make([]int, 0, n)
	logMax := math.Log(float64(maxRank))
	for len(ranks) < n {
		r := int(math.Exp(rng.Float64() * logMax))
		if r < 1 {
			r = 1
		}
		if r > maxRank {
			r = maxRank
		}
		if _, dup := seen[r]; dup {
			continue
		}
		seen[r] = struct{}{}
		ranks = append(ranks, r)
	}
	return ranks
}

func buildPublisher(rng *stats.RNG, cfg Config, prof verticalProfile, rank, id int) Publisher {
	words := domainWords[prof.concept]
	word := stats.Pick(rng, words)
	tld := stats.Pick(rng, prof.tlds)
	domain := fmt.Sprintf("%s%d.%s", word, 100+rng.Intn(900), tld)

	topics := []string{prof.concept}
	// Secondary topic: occasionally another vertical (share-weighted so
	// common verticals appear as secondaries more often), making
	// contextual matching non-trivial without flooding niche verticals
	// with accidental matches.
	if rng.Bool(0.15) {
		weights := make([]float64, len(inventoryProfiles))
		for i, p := range inventoryProfiles {
			weights[i] = p.share
		}
		other := inventoryProfiles[stats.WeightedPick(rng, weights)].concept
		if other != prof.concept {
			topics = append(topics, other)
		}
	}

	keywords := make([]string, 0, 4)
	keywords = append(keywords, strings.ReplaceAll(prof.concept, "-", " "))
	for _, w := range words {
		if rng.Bool(0.5) {
			keywords = append(keywords, w)
		}
	}
	// Popular publishers get cleaner traffic: professional sites police
	// their inventory, long-tail sites source traffic.
	bot := prof.botBase * (0.5 + 1.5*math.Min(1, math.Log10(float64(rank)+1)/7))
	if bot > 0.5 {
		bot = 0.5
	}

	_, unsafe := brandUnsafeVerticals[prof.concept]
	return Publisher{
		Domain:        domain,
		Rank:          rank,
		Vertical:      prof.concept,
		Topics:        topics,
		Keywords:      keywords,
		BotPropensity: bot,
		Anonymous:     rng.Bool(cfg.AnonymousFraction),
		BrandUnsafe:   unsafe,
		BeaconHostile: rng.Bool(cfg.HostileFraction),
	}
}

var brandUnsafeVerticals = map[string]struct{}{
	"adult": {}, "casino": {}, "betting": {}, "torrents": {},
}

// Len returns the number of publishers.
func (u *Universe) Len() int { return len(u.pubs) }

// At returns the i'th publisher.
func (u *Universe) At(i int) Publisher { return u.pubs[i] }

// ByDomain returns the publisher with the given domain.
func (u *Universe) ByDomain(domain string) (Publisher, bool) {
	i, ok := u.byDomain[domain]
	if !ok {
		return Publisher{}, false
	}
	return u.pubs[i], true
}

// Taxonomy returns the content taxonomy the universe was built against.
func (u *Universe) Taxonomy() *semsim.Taxonomy { return u.taxonomy }

// IndexesByVertical returns the indexes of publishers in the given
// vertical. The returned slice must not be modified.
func (u *Universe) IndexesByVertical(v string) []int { return u.byVertical[v] }
