// Brand safety: build the blacklist the vendor report cannot give you.
//
// The paper's Figure 1 finding is that AdWords reported only viewable
// impressions, hiding 57% of the publishers that actually displayed the
// ads. An advertiser protecting its brand needs the FULL placement
// list: a brand-unsafe site that showed the ad without a "viewable"
// impression will keep receiving ads until a user finally sees one
// there.
//
// This example runs the paper's two General campaigns, compares the
// audit's publisher list with the vendor's, surfaces the brand-unsafe
// publishers only the audit saw, and emits a ready-to-upload exclusion
// list.
//
// Run with: go run ./examples/brandsafety
package main

import (
	"fmt"
	"log"
	"os"

	"adaudit"
	"adaudit/internal/adnet"
	"adaudit/internal/report"
	"adaudit/internal/store"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ws, err := adaudit.NewWorkspace(adaudit.Options{Seed: 2016})
	if err != nil {
		return err
	}
	var generals []adnet.Campaign
	for _, c := range adnet.PaperCampaigns() {
		if c.ID == "General-005" || c.ID == "General-010" {
			generals = append(generals, c)
		}
	}
	run, err := ws.Run(generals)
	if err != nil {
		return err
	}
	rep, err := run.Audit()
	if err != nil {
		return err
	}

	if err := report.Figure1(os.Stdout, rep.Aggregate, rep.PerCampaign); err != nil {
		return err
	}
	fmt.Println()

	// The advertiser-facing deliverable: every publisher the ads ran on
	// that the vendor never disclosed, flagged when brand-unsafe.
	agg := rep.Aggregate
	fmt.Printf("The vendor hid %d of %d publishers (%.1f%%).\n",
		agg.Venn.OnlyA, agg.Venn.SizeA(), 100*agg.FractionUnreported())
	fmt.Printf("Among the hidden publishers, %d are brand-unsafe (adult/gambling/piracy):\n",
		len(agg.UnsafeUnreported))
	for i, p := range agg.UnsafeUnreported {
		if i >= 15 {
			fmt.Printf("  ... and %d more\n", len(agg.UnsafeUnreported)-15)
			break
		}
		meta, _ := ws.Publishers.ByDomain(p)
		fmt.Printf("  %-28s vertical=%s rank=%d\n", p, meta.Vertical, meta.Rank)
	}

	// Exclusion list: everything brand-unsafe the audit observed,
	// hidden or not — this is what gets uploaded as a campaign
	// placement exclusion.
	var exclusions []string
	for _, pub := range ws.Store.Publishers("") {
		if meta, ok := ws.Publishers.ByDomain(pub); ok && meta.BrandUnsafe {
			exclusions = append(exclusions, pub)
		}
	}
	fmt.Printf("\n=== exclusion-list.txt (%d entries, first 10) ===\n", len(exclusions))
	for i, p := range exclusions {
		if i >= 10 {
			break
		}
		fmt.Println(p)
	}

	// Quantify the exposure: impressions that rendered on unsafe sites.
	unsafeImps := 0
	total := 0
	ws.Store.Visit(func(im *store.Impression) bool {
		total++
		if meta, ok := ws.Publishers.ByDomain(im.Publisher); ok && meta.BrandUnsafe {
			unsafeImps++
		}
		return true
	})
	fmt.Printf("\nBrand exposure: %d of %d logged impressions (%.2f%%) rendered on brand-unsafe sites.\n",
		unsafeImps, total, 100*float64(unsafeImps)/float64(total))
	return nil
}
