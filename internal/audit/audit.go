// Package audit implements the paper's contribution: the independent
// campaign-quality assessment an advertiser can run from its own beacon
// dataset, without trusting the ad network's reporting (§4.2). Given
// the impression store the collector produced and the vendor's campaign
// reports, it computes the five quality dimensions of §2:
//
//   - Brand safety — the publisher sets seen by the audit vs. reported
//     by the vendor (Figure 1's Venn partition).
//   - Context — the fraction of impressions on contextually meaningful
//     publishers, via exact keyword match plus Leacock–Chodorow
//     semantic similarity (Table 2).
//   - Publisher popularity — impression and publisher distributions
//     over popularity-rank log buckets (Figure 2).
//   - Impression quality — upper-bound viewability (Table 3) and
//     frequency-cap behaviour (Figure 3).
//   - Fraud — data-center traffic shares (Table 4).
package audit

import (
	"fmt"

	"adaudit/internal/publisher"
	"adaudit/internal/semsim"
	"adaudit/internal/store"
)

// PublisherMeta is the per-publisher metadata the audit joins against:
// the popularity rank (the paper uses Alexa) and the keywords/topics
// the ad network's placement tool assigns to the publisher.
type PublisherMeta struct {
	Rank     int
	Keywords []string
	Topics   []string
	// Unsafe marks publishers in brand-unsafe verticals, the sites a
	// brand-safety blacklist exists to catch.
	Unsafe bool
}

// MetadataSource resolves publisher domains to metadata. Lookups for
// unknown domains return ok=false; analyses count and skip them rather
// than failing, since real metadata sources are incomplete too.
type MetadataSource interface {
	PublisherMeta(domain string) (PublisherMeta, bool)
}

// UniverseMetadata adapts the synthetic publisher universe to
// MetadataSource.
type UniverseMetadata struct {
	Universe *publisher.Universe
}

// PublisherMeta implements MetadataSource.
func (u UniverseMetadata) PublisherMeta(domain string) (PublisherMeta, bool) {
	p, ok := u.Universe.ByDomain(domain)
	if !ok {
		return PublisherMeta{}, false
	}
	return PublisherMeta{
		Rank:     p.Rank,
		Keywords: p.Keywords,
		Topics:   p.Topics,
		Unsafe:   p.BrandUnsafe,
	}, true
}

// Auditor runs the analyses over one dataset.
type Auditor struct {
	// Store is the beacon dataset. Required.
	Store *store.Store
	// Meta resolves publisher metadata. Required for the context and
	// popularity analyses. Implementations must be safe for concurrent
	// lookups: FullAudit and ReportStates fan analyses out across a
	// worker pool.
	Meta MetadataSource
	// Matcher decides contextual relevance. Required for the context
	// analysis.
	Matcher *semsim.Matcher
	// Parallelism bounds the worker pool FullAudit and ReportStates fan
	// per-campaign, per-dimension analysis tasks across. 0 uses
	// GOMAXPROCS; 1 runs serially. The report is identical at every
	// setting.
	Parallelism int
	// Sellers resolves the declared-seller state for the adversarial
	// dimensions (seller cross-check, pooling detector). Nil uses the
	// simulated ecosystem's registry (adnet.SellerRegistry). Like Meta,
	// an implementation must be safe for concurrent lookups.
	Sellers SellerDirectory

	tel auditTelemetry
}

// New returns an Auditor over st with the given metadata source and the
// default contextual matcher over the default taxonomy.
func New(st *store.Store, meta MetadataSource) (*Auditor, error) {
	if st == nil {
		return nil, fmt.Errorf("audit: auditor requires a store")
	}
	return &Auditor{
		Store:   st,
		Meta:    meta,
		Matcher: semsim.NewMatcher(semsim.DefaultTaxonomy()),
	}, nil
}

// visitImpressions streams the impressions of one campaign — or every
// impression when campaignID is empty — through fn in insertion order,
// straight off the store's index via the zero-copy visit path.
func (a *Auditor) visitImpressions(campaignID string, fn func(*store.Impression) bool) {
	if campaignID == "" {
		a.Store.Visit(fn)
		return
	}
	a.Store.VisitCampaign(campaignID, fn)
}
