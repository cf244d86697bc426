package audit

import (
	"sort"

	"adaudit/internal/store"
	"adaudit/internal/useragent"
)

// InteractionResult is the behavioural fraud analysis that corroborates
// the IP-based cascade of Table 4: headless agents do not move a mouse,
// and click-spam bots click without any pointer activity — signals the
// beacon's interaction stream exposes even when a bot spoofs a clean
// browser User-Agent from a residential-looking address.
type InteractionResult struct {
	CampaignID  string
	Impressions int

	// UAFlagged counts impressions whose User-Agent parses as
	// automation (HeadlessChrome, PhantomJS, fetch libraries, ...).
	UAFlagged int
	// DCFlagged counts impressions from data-center addresses (the
	// Table 4 signal).
	DCFlagged int
	// Corroborated counts impressions flagged by BOTH signals.
	Corroborated int
	// SpoofedUA counts DC impressions whose User-Agent looks like a
	// clean human browser — the bots only the IP cascade catches.
	SpoofedUA int
	// ResidentialAutomation counts UA-flagged impressions from
	// non-DC addresses — automation running on residential proxies,
	// which the IP cascade alone would miss.
	ResidentialAutomation int

	// ClickNoMove counts impressions with at least one click and zero
	// mouse movement — physically implausible for pointer devices.
	ClickNoMove int
	// ClickNoMoveDC is the subset of those from data-center addresses.
	ClickNoMoveDC int

	// SuspiciousUsers lists users (>= 3 impressions) whose entire
	// history shows clicks but not a single mouse move, sorted.
	SuspiciousUsers []string
}

// SpoofShare returns the fraction of DC impressions presenting clean
// browser User-Agents — how blind a UA-only detector would be.
func (r InteractionResult) SpoofShare() float64 {
	if r.DCFlagged == 0 {
		return 0
	}
	return float64(r.SpoofedUA) / float64(r.DCFlagged)
}

// Interactions runs the behavioural analysis for one campaign ("" for
// all).
func (a *Auditor) Interactions(campaignID string) InteractionResult {
	res := InteractionResult{CampaignID: campaignID}

	type userAgg struct {
		imps, moves, clicks int
	}
	users := map[string]*userAgg{}

	a.visitImpressions(campaignID, func(im *store.Impression) bool {
		res.Impressions++
		agent := useragent.Parse(im.UserAgent)
		uaBot := agent.IsBot()
		dc := IsDataCenterVerdict(im.DataCenter)
		if uaBot {
			res.UAFlagged++
		}
		if dc {
			res.DCFlagged++
			if uaBot {
				res.Corroborated++
			} else {
				res.SpoofedUA++
			}
		} else if uaBot {
			res.ResidentialAutomation++
		}
		if im.Clicks > 0 && im.MouseMoves == 0 {
			res.ClickNoMove++
			if dc {
				res.ClickNoMoveDC++
			}
		}
		u := users[im.UserKey]
		if u == nil {
			u = &userAgg{}
			users[im.UserKey] = u
		}
		u.imps++
		u.moves += im.MouseMoves
		u.clicks += im.Clicks
		return true
	})

	for key, u := range users {
		if u.imps >= 3 && u.clicks > 0 && u.moves == 0 {
			res.SuspiciousUsers = append(res.SuspiciousUsers, key)
		}
	}
	sort.Strings(res.SuspiciousUsers)
	return res
}
