package audit

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"adaudit/internal/adnet"
	"adaudit/internal/store"
	"adaudit/internal/telemetry"
)

// fullFixture builds a multi-campaign dataset diverse enough that a
// scheduling bug would scramble some field of the report: several
// campaigns of different sizes, shared publishers and users, a few
// data-center impressions, and vendor reports that only partially
// overlap the audit's view.
func fullFixture(t *testing.T) (*Auditor, []CampaignInput) {
	t.Helper()
	st := store.New()
	meta := fakeMeta{}
	const campaigns = 6
	inputs := make([]CampaignInput, 0, campaigns)
	for c := 0; c < campaigns; c++ {
		id := fmt.Sprintf("camp%d", c)
		rep := &adnet.VendorReport{CampaignID: id}
		for i := 0; i < 30+10*c; i++ {
			pub := fmt.Sprintf("p%d.es", (c+i)%9)
			meta[pub] = PublisherMeta{
				Rank:     50 * ((c+i)%9 + 1),
				Keywords: []string{"research"},
				Topics:   []string{"science"},
				Unsafe:   (c+i)%9 == 0,
			}
			dc := ""
			if i%11 == 0 {
				dc = "aws"
			}
			addImp(t, st, id, pub, fmt.Sprintf("u%d", i%13),
				base.Add(time.Duration(c*997+i*31)*time.Second),
				time.Duration(500+i*17)*time.Millisecond, dc)
			if i%3 == 0 {
				rep.Rows = append(rep.Rows, adnet.ReportRow{Publisher: pub, Impressions: 1})
			}
		}
		rep.Rows = append(rep.Rows, adnet.ReportRow{Publisher: adnet.AnonymousPublisher, Impressions: 7})
		rep.TotalImpressionsCharged = int64(40 + 10*c)
		rep.ContextualImpressions = int64(20 + 5*c)
		inputs = append(inputs, CampaignInput{
			ID: id, Keywords: []string{"research", "science"}, Report: rep,
		})
	}
	return newAuditor(t, st, meta), inputs
}

// The parallel engine must produce a report deep-equal to the serial
// one on every run, regardless of scheduling. Run with -race this is
// also the engine's data-race check.
func TestFullAuditParallelMatchesSerial(t *testing.T) {
	a, inputs := fullFixture(t)
	want, err := a.FullAuditSerial(inputs)
	if err != nil {
		t.Fatal(err)
	}

	a.Parallelism = 8 // force real fan-out even on 1-CPU machines
	for rep := 0; rep < 10; rep++ {
		got, err := a.FullAudit(inputs)
		if err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rep %d: parallel report diverges from serial\n got %+v\nwant %+v", rep, got, want)
		}
	}
}

// Every Parallelism setting must yield the same report — the knob is a
// throughput control, never a semantics control.
func TestFullAuditParallelismInvariant(t *testing.T) {
	a, inputs := fullFixture(t)
	want, err := a.FullAuditSerial(inputs)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{0, 1, 2, 3, 16, 64} {
		a.Parallelism = p
		got, err := a.FullAudit(inputs)
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parallelism %d: report diverges from serial", p)
		}
	}
}

// A failing task must surface its error from both engines and yield a
// nil report — and always the same error: of all the failing tasks (here
// every campaign's context and, without metadata, popularity), the first
// in task order. What a resolve cannot do for want of a metadata source
// or a matcher it leaves undone, and the fold that needed it says so.
func TestFullAuditErrorPropagates(t *testing.T) {
	for name, breakIt := range map[string]func(*Auditor){
		"no metadata": func(a *Auditor) { a.Meta = nil },
		"no matcher":  func(a *Auditor) { a.Matcher = nil },
	} {
		a, inputs := fullFixture(t)
		breakIt(a)
		for _, p := range []int{1, 2, 3, 8, 64} {
			a.Parallelism = p
			rep, err := a.FullAudit(inputs)
			if err == nil {
				t.Fatalf("%s, parallelism %d: failing context task returned no error", name, p)
			}
			if want := "audit: context for camp0: audit: context analysis requires metadata and a matcher"; err.Error() != want {
				t.Fatalf("%s, parallelism %d: error %q is not that of the first failing task, %q", name, p, err, want)
			}
			if rep != nil {
				t.Fatalf("%s, parallelism %d: got a partial report alongside the error", name, p)
			}
		}
	}
}

// The serial path must stop at the first error without touching later
// tasks — deterministically observable because workers<=1 is an
// in-order inline loop.
func TestRunTasksSerialStopsAtFirstError(t *testing.T) {
	a := newAuditor(t, store.New(), fakeMeta{})
	boom := errors.New("boom")
	var ran []int
	tasks := []task{
		{stageBrandSafety, func() error { ran = append(ran, 0); return nil }},
		{stageContext, func() error { ran = append(ran, 1); return boom }},
		{stageFraud, func() error { ran = append(ran, 2); return nil }},
	}
	if err := a.runTasks(tasks, 1); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if !reflect.DeepEqual(ran, []int{0, 1}) {
		t.Fatalf("tasks ran = %v, want [0 1]", ran)
	}
}

// The parallel pool must return the error, not hang, and cancellation
// must keep it from draining the whole task list. The error lands
// immediately while the other worker burns a millisecond per task, so
// the pool parks long before the 200-task list is exhausted.
func TestRunTasksParallelCancels(t *testing.T) {
	a := newAuditor(t, store.New(), fakeMeta{})
	boom := errors.New("boom")
	var executed atomic.Int64
	tasks := []task{{stageContext, func() error { return boom }}}
	for i := 0; i < 200; i++ {
		tasks = append(tasks, task{stageFraud, func() error {
			executed.Add(1)
			time.Sleep(time.Millisecond)
			return nil
		}})
	}
	if err := a.runTasks(tasks, 2); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := executed.Load(); n >= 200 {
		t.Fatalf("cancellation did not park the pool: %d/200 follow-up tasks ran", n)
	}
}

// workers must honor Parallelism and clamp to the task count.
func TestWorkersResolution(t *testing.T) {
	a := newAuditor(t, store.New(), fakeMeta{})
	if got := a.workers(); got < 1 {
		t.Fatalf("default workers = %d", got)
	}
	a.Parallelism = 5
	if got := a.workers(); got != 5 {
		t.Fatalf("workers = %d, want 5", got)
	}
}

// Instrument must register the audit metrics and observeFull must feed
// them on both the success and failure paths.
func TestInstrumentRecordsAudits(t *testing.T) {
	a, inputs := fullFixture(t)
	reg := telemetry.NewRegistry()
	a.Instrument(reg)
	a.Parallelism = 3

	if _, err := a.FullAudit(inputs); err != nil {
		t.Fatal(err)
	}
	a.Meta = nil
	if _, err := a.FullAudit(inputs); err == nil {
		t.Fatal("expected failure run")
	}

	find := func(name string, labels map[string]string) telemetry.SeriesSnapshot {
		t.Helper()
		ss, ok := reg.Find(name, labels)
		if !ok {
			t.Fatalf("metric %s%v not registered", name, labels)
		}
		return ss
	}
	if got := find("adaudit_audit_full_total", nil).Value; got != 1 {
		t.Fatalf("audit total = %v, want 1", got)
	}
	if got := find("adaudit_audit_full_failures_total", nil).Value; got != 1 {
		t.Fatalf("audit failures = %v, want 1", got)
	}
	if got := find("adaudit_audit_workers", nil).Value; got != 3 {
		t.Fatalf("workers gauge = %v, want 3", got)
	}
	full := find("adaudit_audit_full_seconds", nil)
	if full.Hist == nil || full.Hist.Count != 1 {
		t.Fatalf("full-audit histogram = %+v, want one observation", full.Hist)
	}
	// Per-stage histograms exist for every dimension and the hot ones
	// saw one observation per campaign on the successful run.
	for _, stage := range []string{"state", "brandsafety", "context", "popularity", "viewability", "fraud", "aggregate", "frequency"} {
		ss := find("adaudit_audit_stage_seconds", map[string]string{"stage": stage})
		if ss.Hist == nil || ss.Hist.Count == 0 {
			t.Fatalf("stage %s histogram empty: %+v", stage, ss.Hist)
		}
	}
}

// The resolve phase is a stage like the others: one observation per
// input campaign, however many campaigns the store holds.
func TestInstrumentObservesResolvePerInput(t *testing.T) {
	a, inputs := fullFixture(t)
	reg := telemetry.NewRegistry()
	a.Instrument(reg)
	if _, err := a.FullAudit(inputs[:4]); err != nil {
		t.Fatal(err)
	}
	for stage, want := range map[string]uint64{"state": 6, "publishers": 4, "context": 4, "aggregate": 1} {
		ss, ok := reg.Find("adaudit_audit_stage_seconds", map[string]string{"stage": stage})
		if !ok || ss.Hist == nil || ss.Hist.Count != want {
			t.Errorf("stage %s: histogram %+v, want %d observations", stage, ss.Hist, want)
		}
	}
}
