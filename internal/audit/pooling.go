package audit

import (
	"cmp"
	"slices"
	"strings"

	"adaudit/internal/adnet"
)

// DefaultMaxGroupSpan is K, the widest owner-group span a non-exchange
// seller can have before the pooling detector flags it. Legitimate
// structures stay narrow: a direct account spans one publisher, an
// owner account spans one group, and disclosed exchanges are exempt —
// so any honest seller spans exactly one group.
const DefaultMaxGroupSpan = 3

// PooledSeller is one flagged seller ID with its co-occurrence
// footprint.
type PooledSeller struct {
	SellerID string
	// Publishers and OwnerGroups count the distinct report publishers
	// (and their distinct owner groups) whose inventory the seller
	// booked.
	Publishers  int
	OwnerGroups int
	Impressions int64
}

// PoolingResult is the dark-pooling detector (Vekaria et al., arXiv
// 2210.06654): seller IDs whose publisher set spans more than K
// unrelated owner groups. One account reselling inventory across many
// unrelated publisher groups is pooled inventory, whatever the rows
// call it.
type PoolingResult struct {
	CampaignID string
	// SellersChecked counts distinct attributed, non-exchange sellers;
	// MaxGroupSpan is the widest span observed among them (diagnostic:
	// clean supply chains sit at 1); GroupLimit is the K applied.
	SellersChecked int
	MaxGroupSpan   int
	GroupLimit     int
	// PooledSellers lists the sellers spanning more than K groups,
	// widest span first.
	PooledSellers []PooledSeller
}

// Pooling runs the dark-pooling detector for one campaign's vendor
// report with the default K.
func (a *Auditor) Pooling(campaignID string, rep *adnet.VendorReport) PoolingResult {
	return PoolingFromReport(campaignID, rep, a.sellers(), DefaultMaxGroupSpan)
}

// poolRow is one attributed, non-exchange report row with its
// publisher's owner group resolved — the unit the detector sorts.
type poolRow struct {
	seller, group, publisher string
	imps                     int64
}

// PoolingFromReport materializes the pooling detector from a vendor
// report and a directory — a pure function of the two; the state has
// no part in it. A nil report yields the empty result.
//
// The rows are flattened into a pooled scratch and sorted by (seller,
// group, publisher), so nothing is allocated per seller: a seller's
// rows are adjacent, and as a publisher has one owner group so are its
// duplicates, which makes both distinct counts a count of value changes.
func PoolingFromReport(campaignID string, rep *adnet.VendorReport, dir SellerDirectory, maxGroups int) PoolingResult {
	res := PoolingResult{CampaignID: campaignID, GroupLimit: maxGroups}
	if rep == nil {
		return res
	}
	sc := scratchPool.Get().(*foldScratch)
	defer scratchPool.Put(sc)
	rows := sc.rows[:0]
	for _, row := range rep.Rows {
		if row.SellerID == "" || dir.KnownExchange(row.SellerID) {
			continue
		}
		rows = append(rows, poolRow{row.SellerID, dir.OwnerGroup(row.Publisher), row.Publisher, row.Impressions})
	}
	sc.rows = rows
	slices.SortFunc(rows, func(a, b poolRow) int {
		if c := strings.Compare(a.seller, b.seller); c != 0 {
			return c
		}
		if c := strings.Compare(a.group, b.group); c != 0 {
			return c
		}
		return strings.Compare(a.publisher, b.publisher)
	})
	for i := 0; i < len(rows); {
		ps := PooledSeller{SellerID: rows[i].seller, Publishers: 1, OwnerGroups: 1, Impressions: rows[i].imps}
		for i++; i < len(rows) && rows[i].seller == ps.SellerID; i++ {
			if rows[i].group != rows[i-1].group {
				ps.OwnerGroups++
			}
			if rows[i].publisher != rows[i-1].publisher {
				ps.Publishers++
			}
			ps.Impressions += rows[i].imps
		}
		res.SellersChecked++
		res.MaxGroupSpan = max(res.MaxGroupSpan, ps.OwnerGroups)
		if ps.OwnerGroups > maxGroups {
			res.PooledSellers = append(res.PooledSellers, ps)
		}
	}
	slices.SortFunc(res.PooledSellers, func(a, b PooledSeller) int {
		return cmp.Or(cmp.Compare(b.OwnerGroups, a.OwnerGroups),
			cmp.Compare(b.Impressions, a.Impressions), strings.Compare(a.SellerID, b.SellerID))
	})
	return res
}
