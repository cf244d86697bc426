package simtest

import (
	"net/netip"
	"time"

	"adaudit/internal/adnet"
	"adaudit/internal/audit"
	"adaudit/internal/beacon"
	"adaudit/internal/collector"
	"adaudit/internal/publisher"
	"adaudit/internal/stats"
)

// The adversarial scenario pack (Config.Attack): four attacks from the
// display-fraud literature, each injected as labelled sessions so the
// oracle can hold the audit's detectors to exact precision and recall.
//
//   - spoof: a low-quality site's traffic is booked in the vendor
//     report under a premium domain, with the seller account betraying
//     the true origin — the ads.txt cross-check's target.
//   - pool: one seller account books inventory across publishers from
//     five unrelated owner groups — dark pooling.
//   - bot: a residential-proxy bot with clean ipmeta but a timer's
//     behavioral signature — fixed cadence, fixed exposure, fixed
//     visibility, zero conversions.
//   - inflate: a stacked/1-px placement — exposures comfortably past
//     the viewability threshold while almost no pixels ever show.
//
// Attack identities live in address/domain spaces the organic schedule
// never touches, so every detector flag traces to an injected session
// and the clean-run floor is exactly zero flags.
const (
	botPublisher       = "botfarm-cdn.example"
	inflatePublisher   = "stacked-ads.example"
	spoofTruePublisher = "mfa-lowquality.example"
	poolSellerID       = "pool-sim"

	botGap             = 30 * time.Second
	botExposure        = 75 * time.Second
	botVisibleFraction = 0.25 // 5/20: a fixed point of the wire codecs' grid

	inflateExposure        = 65 * time.Second
	inflateVisibleFraction = 0.05 // 1/20
)

// attackKindFor maps a session index to its adversarial role: every
// sixth session hosts one attack kind, leaving the rest of the
// schedule organic. Pure function of (attack, idx), so shrunk subsets
// keep their labels.
func attackKindFor(attack string, idx int) (scenario, bool) {
	if attack == "" {
		return 0, false
	}
	all := attack == "all"
	switch idx % 6 {
	case 0:
		if all || attack == "bot" {
			return scenarioBot, true
		}
	case 1:
		if all || attack == "inflate" {
			return scenarioInflate, true
		}
	case 2:
		if all || attack == "spoof" {
			return scenarioSpoof, true
		}
	case 3:
		if all || attack == "pool" {
			return scenarioPool, true
		}
	}
	return 0, false
}

// genAttackSession expands one adversarial session. Like genSession it
// is a pure function of (cfg, idx, the session's forked RNG, uni);
// the bot draws nothing from the RNG at all — its whole point is
// determinism.
func genAttackSession(cfg Config, s simSession, kind scenario, rng *stats.RNG, uni *publisher.Universe) simSession {
	s.kind = kind
	k := s.idx / 6 // ordinal within the attack kind

	var (
		campaignID string
		pub        string
		ua         string
		ip         netip.Addr
		exposure   time.Duration
		events     []beacon.Event
		connected  time.Time
	)
	switch kind {
	case scenarioBot:
		// One fixed identity across every bot session: same IP, same
		// agent — the store joins them into one user on an exact 30 s
		// timer with a frozen exposure/visibility signature.
		campaignID = "sim-football"
		pub = botPublisher
		ua = simAgents[0]
		ip = netip.AddrFrom4([4]byte{10, 250, 0, 1})
		exposure = botExposure
		events = []beacon.Event{{Kind: beacon.EventVisibility,
			At: 5 * time.Second, Fraction: botVisibleFraction}}
		connected = simBase.Add(time.Duration(k) * botGap)
	case scenarioInflate:
		// Distinct one-impression users, one stacked placement: long
		// exposures, 1-px fractions.
		campaignID = "sim-news"
		pub = inflatePublisher
		ua = simAgents[rng.Intn(len(simAgents))]
		ip = netip.AddrFrom4([4]byte{10, 251, byte(rng.Intn(250)), byte(1 + rng.Intn(250))})
		exposure = inflateExposure
		events = []beacon.Event{{Kind: beacon.EventVisibility,
			At: 3 * time.Second, Fraction: inflateVisibleFraction}}
		connected = simBase.Add(time.Duration(s.idx)*time.Second +
			time.Duration(rng.Intn(1000))*time.Millisecond)
	case scenarioSpoof:
		// The beacon sees the true low-quality page; the report books
		// it under a premium domain with the spoofer's own direct
		// seller account.
		campaignID = "sim-research"
		pub = spoofTruePublisher
		s.reportedPublisher = premiumDomain(uni)
		s.sellerID = adnet.DirectSellerID(spoofTruePublisher)
		ua = simAgents[rng.Intn(len(simAgents))]
		ip = netip.AddrFrom4([4]byte{10, 252, byte(rng.Intn(250)), byte(1 + rng.Intn(250))})
		exposure = time.Duration(5+rng.Intn(60)) * time.Second
		events = genEvents(rng)
		connected = simBase.Add(time.Duration(s.idx)*time.Second +
			time.Duration(rng.Intn(1000))*time.Millisecond)
	case scenarioPool:
		// Real pages from five unrelated owner groups, all booked under
		// one pooled seller account.
		campaignID = "sim-news"
		pubs := poolPublishers(uni)
		pub = pubs[k%len(pubs)]
		s.sellerID = poolSellerID
		ua = simAgents[rng.Intn(len(simAgents))]
		ip = netip.AddrFrom4([4]byte{10, 253, byte(rng.Intn(250)), byte(1 + rng.Intn(250))})
		exposure = time.Duration(5+rng.Intn(60)) * time.Second
		events = genEvents(rng)
		connected = simBase.Add(time.Duration(s.idx)*time.Second +
			time.Duration(rng.Intn(1000))*time.Millisecond)
	}

	payload := beacon.Payload{
		CampaignID: campaignID,
		CreativeID: "cr1",
		PageURL:    "http://www." + pub + "/ad-slot",
		UserAgent:  ua,
		Nonce:      s.nonce,
		Events:     events,
	}
	if cfg.TraceSample > 0 && s.idx%cfg.TraceSample == 0 {
		payload.TraceID = traceIDFor(s.nonce)
		payload.TraceSent = connected.UnixNano()
	}
	s.segments = []segment{{
		session: s.idx,
		index:   0,
		obs: collector.Observation{
			Payload:     payload,
			RemoteIP:    ip,
			ConnectedAt: connected,
			Exposure:    exposure,
		},
		deliverAt: connected.Add(exposure + 2*time.Second),
	}}
	return s
}

// premiumDomain returns the universe's best-ranked publisher — the
// spoofing target. Pure function of the universe (which depends only
// on the seed).
func premiumDomain(uni *publisher.Universe) string {
	best := uni.At(0)
	for i := 1; i < uni.Len(); i++ {
		if p := uni.At(i); p.Rank < best.Rank {
			best = p
		}
	}
	return best.Domain
}

// poolPublishers returns five universe domains from five distinct
// owner groups, in universe order — the pooled seller's footprint.
func poolPublishers(uni *publisher.Universe) []string {
	seen := map[string]bool{}
	var out []string
	for i := 0; i < uni.Len() && len(out) < 5; i++ {
		d := uni.At(i).Domain
		if g := adnet.OwnerGroupOf(d); !seen[g] {
			seen[g] = true
			out = append(out, d)
		}
	}
	return out
}

// checkAdversarial holds the audit's adversarial detectors to the
// schedule's ground-truth labels: every injected attack is flagged
// (recall) and nothing else is (precision) — so a clean schedule must
// produce exactly zero adversarial flags. Config.DisableDetector
// blanks one dimension first, simulating a regressed detector; with an
// attack injected the recall side must then fail, which is the
// executable proof this invariant has teeth.
func (o *oracle) checkAdversarial() {
	aud, err := audit.New(o.store, o.auditMeta)
	if err != nil {
		o.violate("adversarial: constructing auditor: %v", err)
		return
	}
	rep, err := aud.FullAuditSerial(o.auditInputs())
	if err != nil {
		o.violate("adversarial: audit failed: %v", err)
		return
	}
	for i := range rep.PerCampaign {
		ca := &rep.PerCampaign[i]
		switch o.disable {
		case "sellers":
			ca.Sellers = audit.SellerAuditResult{CampaignID: ca.ID}
		case "pooling":
			ca.Pooling = audit.PoolingResult{CampaignID: ca.ID, GroupLimit: audit.DefaultMaxGroupSpan}
		case "behavior":
			ca.Behavior = audit.BehaviorResult{CampaignID: ca.ID}
		}
		o.checkAdversarialCampaign(ca)
		o.advFlags += len(ca.Sellers.UnauthorizedPairs) + len(ca.Pooling.PooledSellers) +
			len(ca.Behavior.BotUsers) + len(ca.Behavior.InflatedPublishers)
	}
}

func (o *oracle) checkAdversarialCampaign(ca *audit.CampaignAudit) {
	type pair struct{ pub, seller string }
	// Ground truth from the labelled model. Spoofed and pooled rows are
	// both undeclared attributions, so the seller cross-check must flag
	// their union; the pooling detector additionally isolates the
	// pooled account by its owner-group span.
	unauthExp := map[pair]int64{}
	poolPubs, poolGroups := map[string]bool{}, map[string]bool{}
	var poolImps int64
	botRecs := map[string][]*modelRecord{}
	type inflStat struct {
		imps, measured, viewable int
		fracSum                  float64
	}
	inflExp := map[string]*inflStat{}
	for _, rec := range o.model {
		if rec.campaignID != ca.ID {
			continue
		}
		switch rec.attack {
		case scenarioSpoof:
			unauthExp[pair{rec.reportedPublisher, rec.sellerID}]++
		case scenarioPool:
			unauthExp[pair{rec.reportedPublisher, rec.sellerID}]++
			poolPubs[rec.reportedPublisher] = true
			poolGroups[adnet.OwnerGroupOf(rec.reportedPublisher)] = true
			poolImps++
		case scenarioBot:
			botRecs[rec.userKey] = append(botRecs[rec.userKey], rec)
		case scenarioInflate:
			st := inflExp[rec.publisher]
			if st == nil {
				st = &inflStat{}
				inflExp[rec.publisher] = st
			}
			st.imps++
			if rec.visMeasured {
				st.measured++
				st.fracSum += rec.maxVis
			}
			if rec.exposure >= audit.ViewabilityThreshold {
				st.viewable++
			}
		}
	}

	// Seller cross-check: the unauthorized set is exactly the injected
	// (spoofed + pooled) attributions, impression for impression.
	if ca.Sellers.UnattributedRows != 0 {
		o.violate("adversarial sellers %s: %d unattributed rows; every synthesized row carries a seller",
			ca.ID, ca.Sellers.UnattributedRows)
	}
	gotPairs := map[pair]int64{}
	for _, p := range ca.Sellers.UnauthorizedPairs {
		gotPairs[pair{p.Publisher, p.SellerID}] = p.Impressions
	}
	var wantUnauth int64
	for k, n := range unauthExp {
		wantUnauth += n
		if got := gotPairs[k]; got != n {
			o.violate("adversarial sellers %s: injected attribution (%s, %s) flagged with %d impressions, want %d",
				ca.ID, k.pub, k.seller, got, n)
		}
		delete(gotPairs, k)
	}
	for k := range gotPairs {
		o.violate("adversarial sellers %s: honest attribution (%s, %s) flagged as unauthorized",
			ca.ID, k.pub, k.seller)
	}
	if ca.Sellers.UnauthorizedImpressions != wantUnauth {
		o.violate("adversarial sellers %s: %d unauthorized impressions, injected %d",
			ca.ID, ca.Sellers.UnauthorizedImpressions, wantUnauth)
	}

	// Pooling: the pooled account is flagged exactly when its injected
	// footprint spans more than K groups, and nothing else ever is.
	wantPool := len(poolGroups) > audit.DefaultMaxGroupSpan
	found := false
	for _, ps := range ca.Pooling.PooledSellers {
		if ps.SellerID != poolSellerID {
			o.violate("adversarial pooling %s: seller %s flagged; only %s was injected",
				ca.ID, ps.SellerID, poolSellerID)
			continue
		}
		found = true
		if !wantPool {
			o.violate("adversarial pooling %s: %s flagged but its injected span is only %d groups (limit %d)",
				ca.ID, poolSellerID, len(poolGroups), audit.DefaultMaxGroupSpan)
			continue
		}
		if ps.OwnerGroups != len(poolGroups) || ps.Publishers != len(poolPubs) || ps.Impressions != poolImps {
			o.violate("adversarial pooling %s: %s footprint (%d groups, %d pubs, %d imps), injected (%d, %d, %d)",
				ca.ID, poolSellerID, ps.OwnerGroups, ps.Publishers, ps.Impressions,
				len(poolGroups), len(poolPubs), poolImps)
		}
	}
	if wantPool && !found {
		o.violate("adversarial pooling %s: injected pooled seller %s (spanning %d groups) not flagged",
			ca.ID, poolSellerID, len(poolGroups))
	}

	// Behavior, bot side: predicted flags recomputed from the model's
	// labelled records — under shrinking a bot subset can legitimately
	// fall below the impression floor or lose its exact cadence, and
	// the prediction tracks that.
	expBots := map[string]int{}
	for user, recs := range botRecs {
		if len(recs) < audit.BehaviorMinImpressions {
			continue
		}
		if !modelDegenerate(recs) {
			continue
		}
		ts := make([]int64, len(recs))
		for i, r := range recs {
			ts[i] = r.timestamp.UnixNano()
		}
		if cv := audit.CadenceCV(ts); !(cv <= audit.BehaviorMaxCadenceCV) {
			continue
		}
		expBots[user] = len(recs)
	}
	gotBots := map[string]int{}
	for _, u := range ca.Behavior.BotUsers {
		gotBots[u.UserKey] = u.Impressions
	}
	for user, n := range expBots {
		if got := gotBots[user]; got != n {
			o.violate("adversarial behavior %s: injected bot %s flagged with %d impressions, want %d",
				ca.ID, user, got, n)
		}
		delete(gotBots, user)
	}
	for user := range gotBots {
		o.violate("adversarial behavior %s: organic user %s flagged as bot", ca.ID, user)
	}

	// Behavior, inflation side: same treatment for the stacked
	// placement.
	expInfl := map[string]int{}
	for pub, st := range inflExp {
		if st.measured < audit.InflationMinMeasured {
			continue
		}
		mean := st.fracSum / float64(st.measured)
		vshare := float64(st.viewable) / float64(st.imps)
		if mean <= audit.InflationMaxMeanFraction && vshare >= audit.InflationMinViewableShare {
			expInfl[pub] = st.imps
		}
	}
	gotInfl := map[string]int{}
	for _, p := range ca.Behavior.InflatedPublishers {
		gotInfl[p.Publisher] = p.Impressions
	}
	for pub, n := range expInfl {
		if got := gotInfl[pub]; got != n {
			o.violate("adversarial behavior %s: injected stacked placement %s flagged with %d impressions, want %d",
				ca.ID, pub, got, n)
		}
		delete(gotInfl, pub)
	}
	for pub := range gotInfl {
		o.violate("adversarial behavior %s: organic publisher %s flagged as inflated", ca.ID, pub)
	}
}

// modelDegenerate mirrors the detector's no-variance test over model
// records: exposure range within epsilon and, among
// visibility-measured records, visible-fraction range within epsilon.
func modelDegenerate(recs []*modelRecord) bool {
	minE, maxE := recs[0].exposure, recs[0].exposure
	var minF, maxF float64
	measured := false
	for _, r := range recs {
		if r.exposure < minE {
			minE = r.exposure
		}
		if r.exposure > maxE {
			maxE = r.exposure
		}
		if r.visMeasured {
			if !measured {
				minF, maxF = r.maxVis, r.maxVis
				measured = true
			} else {
				if r.maxVis < minF {
					minF = r.maxVis
				}
				if r.maxVis > maxF {
					maxF = r.maxVis
				}
			}
		}
	}
	if (maxE - minE).Seconds() > audit.BehaviorDegenerateEps {
		return false
	}
	if measured && maxF-minF > audit.BehaviorDegenerateEps {
		return false
	}
	return true
}
