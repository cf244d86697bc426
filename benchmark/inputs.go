package main

import (
	"fmt"
	"math/rand"

	"adaudit"
	"adaudit/internal/adnet"
	"adaudit/internal/audit"
	"adaudit/internal/beacon"
	"adaudit/internal/campaign"
	"adaudit/internal/collector"
	"adaudit/internal/store"
)

// dataset is everything a workload consumes, generated from the seed
// alone. The tiers under test only ever see these inputs, never the
// seed.
type dataset struct {
	seed      int64
	ws        *adaudit.Workspace
	campaigns []adnet.Campaign
	keywords  map[string][]string
	meta      audit.UniverseMetadata
	// inputs pairs every campaign with its vendor report (copied out of
	// the run outcome so the 160K deliveries behind it can be freed).
	inputs []audit.CampaignInput
	// frozen is the paper dataset exactly as `adsim` logs it — delivery,
	// §3.1 measurement loss, direct ingest, conversions — and what the
	// audit_* workloads read.
	frozen *store.Store

	// The ingest pool: every delivery whose beacon could fire, shuffled
	// so any prefix carries the full campaign mix, with deterministic
	// nonces b<seed>-<i>. obs[i] is the in-process observation (real
	// device IP, timestamp and exposure); wire[i] is the same payload
	// with event offsets zeroed, because a wire session holds zero
	// exposure and the client sleeps until each event's offset;
	// frames[i] is the binary encoding of obs[i].Payload.
	obs    []collector.Observation
	wire   []beacon.Payload
	frames [][]byte
}

func buildDataset(o options) (*dataset, error) {
	cs := o.campaigns
	if cs == nil {
		cs = adnet.PaperCampaigns()
	}
	ws, err := adaudit.NewWorkspace(adaudit.Options{Seed: o.seed, NumPublishers: o.publishers})
	if err != nil {
		return nil, err
	}
	run, err := ws.Run(cs)
	if err != nil {
		return nil, err
	}
	d := &dataset{
		seed:      o.seed,
		ws:        ws,
		campaigns: cs,
		keywords:  map[string][]string{},
		meta:      audit.UniverseMetadata{Universe: ws.Publishers},
		frozen:    ws.Store,
	}
	reports := run.Outcome.Reports()
	for _, c := range cs {
		rep := *reports[c.ID]
		d.inputs = append(d.inputs, audit.CampaignInput{ID: c.ID, Keywords: c.Keywords, Report: &rep})
		d.keywords[c.ID] = c.Keywords
	}
	for ci := range run.Outcome.Campaigns {
		res := run.Outcome.Campaigns[ci].Result
		for i := range res.Deliveries {
			del := &res.Deliveries[i]
			if del.Publisher.BeaconHostile || del.Device.BeaconBlocked {
				continue
			}
			d.obs = append(d.obs, campaign.ObservationFor(&res.Campaign, del))
		}
	}
	rand.New(rand.NewSource(o.seed)).Shuffle(len(d.obs), func(i, j int) {
		d.obs[i], d.obs[j] = d.obs[j], d.obs[i]
	})
	d.wire = make([]beacon.Payload, len(d.obs))
	d.frames = make([][]byte, len(d.obs))
	for i := range d.obs {
		p := &d.obs[i].Payload
		p.Nonce = d.nonce(i)
		d.frames[i] = p.EncodeBinary()
		w := *p
		w.Events = append([]beacon.Event(nil), p.Events...)
		for j := range w.Events {
			w.Events[j].At = 0
		}
		d.wire[i] = w
	}
	return d, nil
}

func (d *dataset) nonce(i int) string { return fmt.Sprintf("b%d-%d", d.seed, i) }

// wirePayload returns the i-th session's payload. Past the end of the
// pool the payloads repeat under fresh nonces, so a fast machine gets
// more sessions, never a dedup merge.
func (d *dataset) wirePayload(i int) beacon.Payload {
	p := d.wire[i%len(d.wire)]
	if i >= len(d.wire) {
		p.Nonce = d.nonce(i)
	}
	return p
}
