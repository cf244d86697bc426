// Package adnet simulates the ad network the paper bought campaigns
// from (Google AdWords delivering over the Google Display Network). It
// owns the parts of the ecosystem the auditing methodology treats as an
// opaque counterparty: inventory selection, contextual targeting,
// CPM-blind popularity allocation, per-user repeat exposure without a
// default frequency cap, exposure/viewability outcomes, data-center bot
// traffic, and — crucially — the vendor report generator that only
// reports viewable impressions and masks anonymous Ad Exchange
// inventory, the policies behind the paper's headline findings.
//
// The simulator encodes those policies as ground truth; the audit
// package then demonstrates that the paper's methodology recovers them
// from raw impression traffic alone.
package adnet

import (
	"fmt"
	"time"
)

// TargetingMode selects how the network places a campaign, per the
// AdWords guideline the paper quotes in §4.2: keyword campaigns follow
// a contextual strategy, audience campaigns a user-targeting one
// (Online Behavioural Advertising).
type TargetingMode int

const (
	// TargetingContextual places ads on publishers whose content
	// relates to the campaign keywords — the mode all 8 paper campaigns
	// used.
	TargetingContextual TargetingMode = iota
	// TargetingAudience follows users interested in the campaign's
	// topic wherever they browse; publisher context stops mattering.
	TargetingAudience
)

// String returns the mode name.
func (m TargetingMode) String() string {
	switch m {
	case TargetingContextual:
		return "contextual"
	case TargetingAudience:
		return "audience"
	default:
		return fmt.Sprintf("TargetingMode(%d)", int(m))
	}
}

// Campaign is an advertiser campaign configuration, mirroring the
// columns of the paper's Table 1.
type Campaign struct {
	// ID names the campaign (e.g. "Research-010").
	ID string
	// CreativeID identifies the HTML5 creative carrying the beacon.
	CreativeID string
	// Keywords drive AdWords' contextual targeting for keyword-based
	// campaigns.
	Keywords []string
	// CPM is the cost per thousand impressions in euros.
	CPM float64
	// Geo is the targeted country (ISO alpha-2).
	Geo string
	// Impressions is the number of ad impressions the campaign buys.
	Impressions int
	// Start and End bound the flight dates.
	Start, End time.Time
	// Targeting selects contextual (keyword) or audience (OBA)
	// placement; Table 1's campaigns are all contextual.
	Targeting TargetingMode
	// ExcludedPublishers is the advertiser's placement exclusion list:
	// domains the network must never deliver this campaign to. This is
	// the control the paper argues advertisers cannot use effectively
	// today, because the vendor's viewable-only reports hide most of
	// the publishers that would need excluding.
	ExcludedPublishers []string
}

// Validate checks the campaign is runnable.
func (c *Campaign) Validate() error {
	switch {
	case c.ID == "":
		return fmt.Errorf("adnet: campaign missing id")
	case len(c.Keywords) == 0:
		return fmt.Errorf("adnet: campaign %s has no keywords", c.ID)
	case c.CPM <= 0:
		return fmt.Errorf("adnet: campaign %s has non-positive CPM", c.ID)
	case c.Geo == "":
		return fmt.Errorf("adnet: campaign %s missing geo", c.ID)
	case c.Impressions <= 0:
		return fmt.Errorf("adnet: campaign %s buys no impressions", c.ID)
	case !c.End.After(c.Start):
		return fmt.Errorf("adnet: campaign %s has empty flight window", c.ID)
	}
	return nil
}

// Budget returns the campaign's total spend in euros.
func (c *Campaign) Budget() float64 {
	return c.CPM * float64(c.Impressions) / 1000
}

func date(y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}

// PaperCampaigns returns the 8 campaigns of the paper's Table 1, with
// the published impression counts, CPMs, keywords, geos and flight
// dates.
func PaperCampaigns() []Campaign {
	return []Campaign{
		{
			ID: "Research-010", CreativeID: "research-728x90",
			Keywords: []string{"research"}, CPM: 0.10, Geo: "ES",
			Impressions: 5117,
			Start:       date(2016, time.March, 29), End: date(2016, time.March, 31),
		},
		{
			ID: "Research-020", CreativeID: "research-728x90",
			Keywords: []string{"research"}, CPM: 0.20, Geo: "ES",
			Impressions: 42399,
			Start:       date(2016, time.March, 29), End: date(2016, time.March, 31),
		},
		{
			ID: "Football-010", CreativeID: "football-300x250",
			Keywords: []string{"football"}, CPM: 0.10, Geo: "ES",
			Impressions: 33730,
			Start:       date(2016, time.April, 2), End: date(2016, time.April, 3),
		},
		{
			ID: "Football-030", CreativeID: "football-300x250",
			Keywords: []string{"football"}, CPM: 0.30, Geo: "ES",
			Impressions: 24461,
			Start:       date(2016, time.April, 2), End: date(2016, time.April, 3),
		},
		{
			ID: "Russia", CreativeID: "research-728x90",
			Keywords: []string{"research"}, CPM: 0.01, Geo: "RU",
			Impressions: 4096,
			Start:       date(2016, time.March, 29), End: date(2016, time.March, 31),
		},
		{
			ID: "USA", CreativeID: "research-728x90",
			Keywords: []string{"research"}, CPM: 0.01, Geo: "US",
			Impressions: 1178,
			Start:       date(2016, time.March, 29), End: date(2016, time.March, 31),
		},
		{
			ID: "General-005", CreativeID: "general-728x90",
			Keywords: []string{"universities", "research", "telematics"}, CPM: 0.05, Geo: "ES",
			Impressions: 8810,
			Start:       date(2016, time.February, 15), End: date(2016, time.February, 23),
		},
		{
			ID: "General-010", CreativeID: "general-728x90",
			Keywords: []string{"universities", "research", "telematics"}, CPM: 0.10, Geo: "ES",
			Impressions: 42357,
			Start:       date(2016, time.February, 18), End: date(2016, time.February, 23),
		},
	}
}
