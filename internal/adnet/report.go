package adnet

import (
	"sort"

	"adaudit/internal/stats"
)

// AnonymousPublisher is the label AdWords reports for Ad Exchange
// inventory partners that keep their identity hidden.
const AnonymousPublisher = "anonymous.google"

// ReportRow is one placement row of the vendor report.
type ReportRow struct {
	// Publisher is the placement domain, or AnonymousPublisher for
	// masked Ad Exchange inventory.
	Publisher string
	// Impressions is the impression count the vendor reports for the
	// placement. Per the vendor's (undisclosed) policy this counts only
	// viewable impressions.
	Impressions int64
	// Clicks is the reported click count.
	Clicks int64
	// SellerID is the sellers.json-style seller of record for the row:
	// the publisher's direct account on honest rows, the exchange
	// account on anonymous inventory, or whatever account the supply
	// chain routed the inventory through — the field the audit's
	// ads.txt cross-check and pooling detector read. Empty on reports
	// predating seller attribution.
	SellerID string
}

// VendorReport is what the advertiser downloads from the vendor after
// (or during) the flight — the artifact the paper audits AdWords
// against. Its construction encodes the reporting policies the paper
// uncovered: viewable-only placement rows, anonymous inventory
// masking, an optimistic contextual count, and silent refunds.
type VendorReport struct {
	CampaignID string
	// Rows are the per-placement counts, sorted by impressions
	// descending. Only placements with at least one viewable impression
	// appear; anonymous inventory is collapsed into one row.
	Rows []ReportRow
	// TotalImpressionsCharged is what the advertiser pays for — ALL
	// delivered impressions (viewable or not, bot or not), minus
	// refunds.
	TotalImpressionsCharged int64
	// ContextualImpressions is the vendor's count of contextually
	// delivered impressions (its own criteria, not disclosed).
	ContextualImpressions int64
	// RefundedImpressions is the unexplained post-flight credit the
	// paper observed for data-center traffic.
	RefundedImpressions int64
}

// AnonymousImpressions returns the impression count reported under the
// anonymous label.
func (r *VendorReport) AnonymousImpressions() int64 {
	for _, row := range r.Rows {
		if row.Publisher == AnonymousPublisher {
			return row.Impressions
		}
	}
	return 0
}

// buildReport assembles the vendor report from the ground-truth
// deliveries, applying the vendor's reporting policies.
func (n *Network) buildReport(rng *stats.RNG, c *Campaign, deliveries []Delivery) VendorReport {
	type agg struct {
		imps, clicks int64
	}
	type rowKey struct {
		name, seller string
	}
	rows := map[rowKey]*agg{}
	var contextual, dcCharged int64

	for i := range deliveries {
		d := &deliveries[i]
		if d.VendorClaimsContextual {
			contextual++
		}
		// The refund cascade only sees data-center address space:
		// residential-proxy bots sail straight through it.
		if d.Device.Bot && !d.Device.ResidentialProxy {
			dcCharged++
		}
		if !d.VendorViewable {
			continue // policy: only viewable impressions are reported
		}
		name := d.Publisher.Domain
		seller := DirectSellerID(d.Publisher.Domain)
		if d.Publisher.Anonymous {
			name = AnonymousPublisher
			seller = ExchangeSellerID
		}
		// Adversarial reselling: the row lands under the label and
		// seller account the supply chain claimed, not the truth.
		if d.ReportedDomain != "" {
			name = d.ReportedDomain
		}
		if d.SellerID != "" {
			seller = d.SellerID
		}
		k := rowKey{name, seller}
		a := rows[k]
		if a == nil {
			a = &agg{}
			rows[k] = a
		}
		a.imps++
		a.clicks += int64(d.Clicks)
	}

	report := VendorReport{
		CampaignID:            c.ID,
		ContextualImpressions: contextual,
	}
	for k, a := range rows {
		report.Rows = append(report.Rows, ReportRow{Publisher: k.name, Impressions: a.imps, Clicks: a.clicks, SellerID: k.seller})
	}
	sort.Slice(report.Rows, func(i, j int) bool {
		if report.Rows[i].Impressions != report.Rows[j].Impressions {
			return report.Rows[i].Impressions > report.Rows[j].Impressions
		}
		if report.Rows[i].Publisher != report.Rows[j].Publisher {
			return report.Rows[i].Publisher < report.Rows[j].Publisher
		}
		return report.Rows[i].SellerID < report.Rows[j].SellerID
	})

	// Billing: every delivered impression is charged; a fraction of the
	// data-center traffic is silently refunded after the flight.
	refund := int64(float64(dcCharged) * n.policy.RefundDataCenterFraction)
	report.RefundedImpressions = refund
	report.TotalImpressionsCharged = int64(len(deliveries)) - refund
	_ = rng // reserved for future stochastic reporting policies
	return report
}
