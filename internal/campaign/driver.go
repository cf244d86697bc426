// Package campaign orchestrates end-to-end auditing runs: it executes
// campaigns on the simulated ad network, replays each delivered
// impression as a beacon observation against the collector — applying
// the paper's §3.1 measurement-loss model on the way — and bundles the
// resulting dataset with the vendor reports for the audit package.
//
// The replay calls the collector's ingest funnel with virtual
// timestamps, which scales to the paper's 160K-impression workload in
// milliseconds. Its payloads (PayloadFor) are what the beacon sends over
// the wire; the package's tests report a sample through a real beacon
// session to prove both paths record the same thing.
package campaign

import (
	"fmt"
	"sync"
	"time"

	"adaudit/internal/adnet"
	"adaudit/internal/beacon"
	"adaudit/internal/collector"
	"adaudit/internal/stats"
	"adaudit/internal/telemetry"
	"adaudit/internal/trace"
)

// LossModel is the paper's §3.1 error model: reasons an ad impression
// never reaches the central server.
type LossModel struct {
	// ConnectionFailure is the per-impression probability that the
	// beacon's WebSocket never completes (network errors, server load,
	// browser killed mid-handshake). Blocked devices are modelled
	// separately on the device itself (Device.BeaconBlocked).
	ConnectionFailure float64
}

// DefaultLossModel returns the calibrated loss model: combined with the
// fleet's 10% script-blocked devices it reproduces the paper's
// footnote-2 finding that the methodology missed 16.5% of publishers.
func DefaultLossModel() LossModel {
	return LossModel{ConnectionFailure: 0.04}
}

// Driver runs campaigns and feeds the collector.
type Driver struct {
	// Network simulates delivery. Required.
	Network *adnet.Network
	// Collector ingests observations. Required.
	Collector *collector.Collector
	// Loss is the measurement-loss model.
	Loss LossModel
	// Seed drives the loss draws.
	Seed int64

	telOnce sync.Once
	tel     driverTelemetry
}

// driverTelemetry measures replay throughput: how fast campaigns move
// through the beacon-replay funnel and where impressions are lost.
type driverTelemetry struct {
	runs        *telemetry.Counter
	deliveries  *telemetry.Counter
	logged      *telemetry.Counter
	lost        *telemetry.CounterVec
	conversions *telemetry.Counter
	runSeconds  *telemetry.Histogram
}

// telemetry lazily registers the driver's instruments on the
// collector's registry, so a driver shares the exposition surface of
// the collector it feeds. With telemetry disabled on the collector the
// instruments stay nil (all methods are nil-safe no-ops).
func (d *Driver) telemetry() *driverTelemetry {
	d.telOnce.Do(func() {
		reg := d.Collector.Telemetry()
		if reg == nil {
			return
		}
		d.tel = driverTelemetry{
			runs: reg.Counter("adaudit_campaign_runs_total",
				"Campaign executions completed.", nil),
			deliveries: reg.Counter("adaudit_campaign_deliveries_total",
				"Network-side ad deliveries produced.", nil),
			logged: reg.Counter("adaudit_campaign_logged_total",
				"Deliveries that reached the collector as impressions.", nil),
			lost: reg.CounterVec("adaudit_campaign_lost_total",
				"Deliveries lost before the collector, by reason.", "reason"),
			conversions: reg.Counter("adaudit_campaign_conversions_total",
				"Conversion records replayed into the collector.", nil),
			runSeconds: reg.Histogram("adaudit_campaign_run_seconds",
				"Wall time per campaign execution (delivery + replay).",
				telemetry.LatencyBuckets(), nil),
		}
	})
	return &d.tel
}

// CampaignOutcome summarises one campaign's run.
type CampaignOutcome struct {
	// Result is the network-side ground truth and vendor report.
	Result *adnet.CampaignResult
	// Logged counts impressions that reached the collector.
	Logged int
	// LostBlocked counts impressions on script-blocked devices.
	LostBlocked int
	// LostConnection counts impressions dropped by connection errors.
	LostConnection int
	// Conversions counts conversion-pixel records logged.
	Conversions int
}

// RunOutcome aggregates a multi-campaign run.
type RunOutcome struct {
	Campaigns []CampaignOutcome
}

// Reports returns the vendor reports keyed by campaign ID.
func (r *RunOutcome) Reports() map[string]*adnet.VendorReport {
	out := make(map[string]*adnet.VendorReport, len(r.Campaigns))
	for i := range r.Campaigns {
		res := r.Campaigns[i].Result
		out[res.Campaign.ID] = &res.Report
	}
	return out
}

// TotalLogged sums logged impressions across campaigns.
func (r *RunOutcome) TotalLogged() int {
	n := 0
	for _, c := range r.Campaigns {
		n += c.Logged
	}
	return n
}

// Run executes one campaign and replays its deliveries into the
// collector through the direct ingest path.
func (d *Driver) Run(c adnet.Campaign) (*CampaignOutcome, error) {
	if d.Network == nil || d.Collector == nil {
		return nil, fmt.Errorf("campaign: driver requires a network and a collector")
	}
	tel := d.telemetry()
	runStart := time.Now()
	res, err := d.Network.Run(c)
	if err != nil {
		return nil, fmt.Errorf("campaign: running %s: %w", c.ID, err)
	}
	tel.deliveries.Add(int64(len(res.Deliveries)))
	rng := stats.NewRNG(d.Seed).Fork("loss/" + c.ID)
	out := &CampaignOutcome{Result: res}
	for i := range res.Deliveries {
		del := &res.Deliveries[i]
		switch {
		case del.Publisher.BeaconHostile, del.Device.BeaconBlocked:
			// Either the page's embedding policy or the device's
			// browser/antivirus configuration stopped the script.
			out.LostBlocked++
			continue
		case rng.Bool(d.Loss.ConnectionFailure):
			out.LostConnection++
			continue
		}
		obs := ObservationFor(&res.Campaign, del)
		// The driver is the beacon sender on the direct path: sampled
		// deliveries start their pipeline trace here, stamped at the
		// moment the simulated beacon would have fired.
		if tr := d.Collector.Tracer().Start(); tr != nil {
			tr.Stage(trace.StageBeaconSend)
			obs.Trace = tr
		}
		if _, err := d.Collector.Ingest(obs); err != nil {
			return nil, fmt.Errorf("campaign: ingesting %s delivery %d: %w", c.ID, i, err)
		}
		out.Logged++

		// Conversions fire from the advertiser's own page: the
		// first-party pixel is unaffected by the publisher's iframe
		// policies, only by generic network loss.
		if del.Converted && !rng.Bool(d.Loss.ConnectionFailure) {
			if _, err := d.Collector.IngestConversion(collector.ConversionObservation{
				Conversion: beacon.Conversion{
					CampaignID: c.ID,
					Action:     "purchase",
					ValueCents: del.ConversionValueCents,
				},
				RemoteIP:  del.Device.Addr,
				UserAgent: del.Device.UserAgent,
				At:        del.ConvertedAt,
			}); err != nil {
				return nil, fmt.Errorf("campaign: ingesting %s conversion %d: %w", c.ID, i, err)
			}
			out.Conversions++
		}
	}
	tel.logged.Add(int64(out.Logged))
	tel.lost.With("blocked").Add(int64(out.LostBlocked))
	tel.lost.With("connection").Add(int64(out.LostConnection))
	tel.conversions.Add(int64(out.Conversions))
	tel.runs.Inc()
	tel.runSeconds.ObserveDuration(time.Since(runStart))
	return out, nil
}

// RunAll executes campaigns in order.
func (d *Driver) RunAll(cs []adnet.Campaign) (*RunOutcome, error) {
	out := &RunOutcome{}
	for _, c := range cs {
		oc, err := d.Run(c)
		if err != nil {
			return nil, err
		}
		out.Campaigns = append(out.Campaigns, *oc)
	}
	return out, nil
}

// ObservationFor converts a network delivery into the observation the
// collector would have derived from the device's beacon connection.
func ObservationFor(c *adnet.Campaign, del *adnet.Delivery) collector.Observation {
	return collector.Observation{
		Payload:     PayloadFor(c, del),
		RemoteIP:    del.Device.Addr,
		ConnectedAt: del.At,
		Exposure:    del.Exposure,
	}
}

// PayloadFor builds the beacon payload a delivery's device would send.
func PayloadFor(c *adnet.Campaign, del *adnet.Delivery) beacon.Payload {
	events := make([]beacon.Event, 0, del.MouseMoves+del.Clicks)
	// Spread interactions across the exposure window deterministically;
	// exact offsets are not analysed, only counts.
	step := del.Exposure / time.Duration(del.MouseMoves+del.Clicks+1)
	at := step
	for i := 0; i < del.MouseMoves; i++ {
		events = append(events, beacon.Event{Kind: beacon.EventMouseMove, At: at})
		at += step
	}
	for i := 0; i < del.Clicks; i++ {
		events = append(events, beacon.Event{Kind: beacon.EventClick, At: at})
		at += step
	}
	if del.VisibilityMeasured {
		events = append(events, beacon.Event{
			Kind:     beacon.EventVisibility,
			At:       step,
			Fraction: del.MaxVisibleFraction,
		})
	}
	return beacon.Payload{
		CampaignID: c.ID,
		CreativeID: c.CreativeID,
		PageURL:    fmt.Sprintf("http://www.%s/p/%d", del.Publisher.Domain, del.At.Unix()%1000),
		UserAgent:  del.Device.UserAgent,
		Events:     events,
	}
}
