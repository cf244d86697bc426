package audit

import (
	"testing"
	"time"

	"adaudit/internal/store"
)

func addImpFull(t *testing.T, st *store.Store, user, ua, dc string, moves, clicks int, at time.Time) {
	t.Helper()
	if dc == "" {
		dc = "not-data-center"
	}
	if _, err := st.Insert(store.Impression{
		CampaignID: "c", CreativeID: "cr", Publisher: "p.es",
		PageURL: "http://p.es/", UserAgent: ua,
		IPPseudonym: "ip-" + user, UserKey: user,
		Timestamp: at, Exposure: time.Second,
		MouseMoves: moves, Clicks: clicks, DataCenter: dc,
	}); err != nil {
		t.Fatal(err)
	}
}

const (
	humanUA    = "Mozilla/5.0 (Windows NT 10.0; Win64; x64) AppleWebKit/537.36 (KHTML, like Gecko) Chrome/49.0.2623.87 Safari/537.36"
	headlessUA = "Mozilla/5.0 (X11; Linux x86_64) AppleWebKit/537.36 (KHTML, like Gecko) HeadlessChrome/49.0.2623.87 Safari/537.36"
)

func TestInteractionSegments(t *testing.T) {
	st := store.New()
	// Human: moves and clicks, residential.
	addImpFull(t, st, "human", humanUA, "", 3, 1, base)
	// Corroborated bot: headless UA on DC address.
	addImpFull(t, st, "bot1", headlessUA, "provider-db", 0, 1, base)
	// Spoofing bot: clean UA on DC address.
	addImpFull(t, st, "bot2", humanUA, "deny-list", 0, 0, base)
	// Residential automation: headless UA, residential address.
	addImpFull(t, st, "proxybot", headlessUA, "", 0, 0, base)

	a := newAuditor(t, st, nil)
	res := a.Interactions("c")
	if res.Impressions != 4 {
		t.Fatalf("impressions = %d", res.Impressions)
	}
	if res.UAFlagged != 2 || res.DCFlagged != 2 {
		t.Fatalf("flags: ua=%d dc=%d", res.UAFlagged, res.DCFlagged)
	}
	if res.Corroborated != 1 || res.SpoofedUA != 1 || res.ResidentialAutomation != 1 {
		t.Fatalf("segments: corr=%d spoof=%d resauto=%d",
			res.Corroborated, res.SpoofedUA, res.ResidentialAutomation)
	}
	if got := res.SpoofShare(); got != 0.5 {
		t.Fatalf("spoof share = %v", got)
	}
}

func TestInteractionClickNoMove(t *testing.T) {
	st := store.New()
	addImpFull(t, st, "clicker", humanUA, "provider-db", 0, 2, base)
	addImpFull(t, st, "normal", humanUA, "", 5, 1, base)
	a := newAuditor(t, st, nil)
	res := a.Interactions("c")
	if res.ClickNoMove != 1 || res.ClickNoMoveDC != 1 {
		t.Fatalf("click-no-move = %d (dc %d)", res.ClickNoMove, res.ClickNoMoveDC)
	}
}

func TestInteractionSuspiciousUsers(t *testing.T) {
	st := store.New()
	// A user with 3 impressions, clicks, zero moves: suspicious.
	for i := 0; i < 3; i++ {
		addImpFull(t, st, "susp", humanUA, "", 0, 1, base.Add(time.Duration(i)*time.Minute))
	}
	// A user with clicks AND moves across history: fine.
	addImpFull(t, st, "ok", humanUA, "", 0, 1, base)
	addImpFull(t, st, "ok", humanUA, "", 4, 0, base.Add(time.Minute))
	addImpFull(t, st, "ok", humanUA, "", 2, 1, base.Add(2*time.Minute))
	// A click-only user below the impression floor: not listed.
	addImpFull(t, st, "light", humanUA, "", 0, 1, base)

	a := newAuditor(t, st, nil)
	res := a.Interactions("c")
	if len(res.SuspiciousUsers) != 1 || res.SuspiciousUsers[0] != "susp" {
		t.Fatalf("suspicious = %v", res.SuspiciousUsers)
	}
}

func TestInteractionEmptyStore(t *testing.T) {
	a := newAuditor(t, store.New(), nil)
	res := a.Interactions("")
	if res.Impressions != 0 || res.UAFlagged != 0 || res.SpoofShare() != 0 {
		t.Fatalf("empty result = %+v", res)
	}
}
