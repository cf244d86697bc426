package audit

import (
	"sort"

	"adaudit/internal/adnet"
)

// SellerDirectory resolves the declared (ads.txt / sellers.json) state
// of the supply chain: which seller accounts a publisher has
// authorized, which accounts are disclosed exchanges, and which owner
// group a publisher belongs to. The default is the simulated
// ecosystem's registry (adnet.SellerRegistry); a real deployment would
// back this with an ads.txt crawl.
type SellerDirectory interface {
	// Authorized reports whether seller appears in publisher's declared
	// seller set.
	Authorized(publisher, seller string) bool
	// KnownExchange reports whether seller is a disclosed exchange
	// account (legitimately spans every publisher).
	KnownExchange(seller string) bool
	// OwnerGroup returns the publisher's owner-group label, a function of
	// the publisher alone — the pooling detector's "unrelated groups" unit.
	OwnerGroup(publisher string) string
}

// sellers resolves the configured directory.
func (a *Auditor) sellers() SellerDirectory {
	if a.Sellers != nil {
		return a.Sellers
	}
	return adnet.SellerRegistry{}
}

// SellerPair is one (publisher, seller) report attribution with the
// impressions booked under it.
type SellerPair struct {
	Publisher   string
	SellerID    string
	Impressions int64
}

// SellerAuditResult is the ads.txt-style seller cross-check: every
// vendor-report row's seller of record compared against the
// publisher's declared seller set. Unauthorized attributions are the
// domain-spoofing / dark-pooling signature — somebody sold inventory
// the publisher never authorized them to sell.
type SellerAuditResult struct {
	CampaignID string
	// RowsChecked counts report rows carrying a seller attribution;
	// UnattributedRows counts rows without one (reports predating
	// seller IDs), which the cross-check can say nothing about.
	RowsChecked      int
	UnattributedRows int
	// AuthorizedImpressions and UnauthorizedImpressions split the
	// checked rows' impressions by whether the seller was declared.
	AuthorizedImpressions   int64
	UnauthorizedImpressions int64
	// UnauthorizedPairs lists every undeclared (publisher, seller)
	// attribution, most impressions first.
	UnauthorizedPairs []SellerPair
}

// UnauthorizedRate returns the unauthorized-reseller rate: the share
// of checked impressions booked under undeclared sellers.
func (r SellerAuditResult) UnauthorizedRate() float64 {
	total := r.AuthorizedImpressions + r.UnauthorizedImpressions
	if total == 0 {
		return 0
	}
	return float64(r.UnauthorizedImpressions) / float64(total)
}

// SellerAudit runs the seller cross-check for one campaign's vendor
// report against the auditor's directory.
func (a *Auditor) SellerAudit(campaignID string, rep *adnet.VendorReport) SellerAuditResult {
	return SellerAuditFromReport(campaignID, rep, a.sellers())
}

// SellerAuditFromReport materializes the cross-check from a vendor
// report and a declared-seller directory — a pure function of the two;
// the state has no part in it. A nil report yields the empty result.
func SellerAuditFromReport(campaignID string, rep *adnet.VendorReport, dir SellerDirectory) SellerAuditResult {
	res := SellerAuditResult{CampaignID: campaignID}
	if rep == nil {
		return res
	}
	type pairKey struct{ pub, seller string }
	unauthorized := map[pairKey]int64{}
	for _, row := range rep.Rows {
		if row.SellerID == "" {
			res.UnattributedRows++
			continue
		}
		res.RowsChecked++
		if dir.Authorized(row.Publisher, row.SellerID) {
			res.AuthorizedImpressions += row.Impressions
			continue
		}
		res.UnauthorizedImpressions += row.Impressions
		unauthorized[pairKey{row.Publisher, row.SellerID}] += row.Impressions
	}
	res.UnauthorizedPairs = make([]SellerPair, 0, len(unauthorized))
	for k, imps := range unauthorized {
		res.UnauthorizedPairs = append(res.UnauthorizedPairs, SellerPair{
			Publisher: k.pub, SellerID: k.seller, Impressions: imps,
		})
	}
	sort.Slice(res.UnauthorizedPairs, func(i, j int) bool {
		a, b := res.UnauthorizedPairs[i], res.UnauthorizedPairs[j]
		if a.Impressions != b.Impressions {
			return a.Impressions > b.Impressions
		}
		if a.Publisher != b.Publisher {
			return a.Publisher < b.Publisher
		}
		return a.SellerID < b.SellerID
	})
	return res
}
