package audit

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"adaudit/internal/adnet"
)

// CampaignInput names one campaign to audit: its targeting keywords
// (needed by the context analysis) and its vendor report.
type CampaignInput struct {
	ID       string
	Keywords []string
	Report   *adnet.VendorReport
}

// CampaignAudit bundles every per-campaign analysis.
type CampaignAudit struct {
	ID          string
	BrandSafety BrandSafetyResult
	Context     ContextResult
	Popularity  PopularityResult
	Viewability ViewabilityResult
	Fraud       FraudResult
	// The adversarial dimensions (see sellers.go, pooling.go,
	// behavior.go): supply-chain and behavioral fraud the five paper
	// dimensions cannot see.
	Sellers  SellerAuditResult
	Pooling  PoolingResult
	Behavior BehaviorResult
}

// FullReport is the complete audit of a dataset: one CampaignAudit per
// campaign plus the cross-campaign aggregates (Figure 1's all-campaigns
// Venn and Figure 3's frequency scatter).
type FullReport struct {
	PerCampaign []CampaignAudit
	Aggregate   BrandSafetyResult
	Frequency   FrequencyResult
}

// FullAudit runs every analysis over the dataset. Popularity uses
// base-10 rank buckets up to 10M, matching Figure 2.
//
// One visit per campaign fills that campaign's pooled State, one walk
// of its publisher dictionary resolves each input campaign's publishers
// against the metadata source and the campaign's keywords (resolve),
// and every result is then a fold over a state and its resolved view.
// The three phases fan out across a bounded pool (Auditor.Parallelism
// workers; GOMAXPROCS when 0): each fill, each resolve, each (campaign,
// dimension) fold and the two cross-campaign aggregates is an
// independent task writing a distinct place, so no result ever crosses
// a lock. Output is deterministic — identical to FullAuditSerial bit
// for bit — because task identity, not completion order, decides where
// a result lands, and each state holds its campaign's impressions in
// insertion order. So is failure: only folds can fail, and the error
// returned is that of the failing fold lowest in task order.
func (a *Auditor) FullAudit(inputs []CampaignInput) (*FullReport, error) {
	return a.fullAudit(inputs, a.workers())
}

// FullAuditSerial is FullAudit on one goroutine, tasks in order (the
// fills; the resolves; the two aggregates, then per campaign brand
// safety, context, popularity, viewability, fraud, sellers, pooling,
// behavior) — the baseline the serial-vs-parallel benchmarks and
// determinism tests compare against.
func (a *Auditor) FullAuditSerial(inputs []CampaignInput) (*FullReport, error) {
	return a.fullAudit(inputs, 1)
}

// workers resolves the configured pool size.
func (a *Auditor) workers() int {
	if a.Parallelism > 0 {
		return a.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// task is one unit of audit work: a closure that fills one state or
// computes a single dimension into its preassigned slot in the report.
type task struct {
	stage string
	run   func() error
}

func (a *Auditor) fullAudit(inputs []CampaignInput, workers int) (rep *FullReport, err error) {
	start := a.tel.stageStart()
	defer func() { a.tel.observeFull(start, workers, err) }()
	states := a.fillAll(workers)
	defer releaseAll(states)
	return a.report(states, nil, inputs, workers)
}

// fillAll fills the state of every campaign in the store: the inputs'
// campaigns need theirs, the two aggregates need all of them.
func (a *Auditor) fillAll(workers int) map[string]*State {
	ids := a.Store.Campaigns()
	states := make(map[string]*State, len(ids))
	tasks := make([]task, 0, len(ids))
	for _, id := range ids {
		s := statePool.Get().(*State)
		states[id] = s
		tasks = append(tasks, task{stageState, func() error {
			a.fillInto(s, id)
			return nil
		}})
	}
	a.runTasks(tasks, workers) // a fill cannot fail
	return states
}

func releaseAll(states map[string]*State) {
	for _, s := range states {
		release(s)
	}
}

// ReportStates materialises the full report from per-campaign states —
// what FullAudit does once its states are filled, and all the streaming
// engine and the shard-merge tier do, theirs being kept or merged
// rather than filled — on the same pool. A campaign without a state is
// an empty one. The states are only read, and must not change meanwhile.
// Each campaign's publishers resolve through its view in kept, which
// this extends or starts over (see Views); a nil kept resolves into
// scratch.
func (a *Auditor) ReportStates(states map[string]*State, kept *Views, inputs []CampaignInput) (*FullReport, error) {
	return a.report(states, kept, inputs, a.workers())
}

func (a *Auditor) report(states map[string]*State, kept *Views, inputs []CampaignInput, workers int) (*FullReport, error) {
	rep := &FullReport{PerCampaign: make([]CampaignAudit, len(inputs))}
	sts := make([]*State, len(inputs)) // inputs[i]'s state, and its resolved view
	views := make([]*pubView, len(inputs))
	// keeps[i] is inputs[i]'s kept view. Only the first input naming a
	// campaign that has a state is given one, so no two resolve tasks
	// extend the same view; the others resolve into scratch.
	keeps := make([]*keptView, len(inputs))
	var claimed map[string]bool
	if kept != nil {
		claimed = make(map[string]bool, len(inputs))
	}
	resolves := make([]task, len(inputs))
	for i, in := range inputs {
		if in.Report == nil {
			return nil, fmt.Errorf("audit: campaign %s has no vendor report", in.ID)
		}
		if sts[i] = states[in.ID]; sts[i] == nil {
			sts[i] = noState
		} else if kept != nil && !claimed[in.ID] {
			keeps[i], claimed[in.ID] = kept.kept(in.ID, sts[i], in.Keywords), true
		}
		resolves[i] = task{stagePublishers, func() error {
			if keeps[i] != nil {
				views[i] = a.resolveKept(keeps[i])
			} else {
				views[i] = a.resolve(sts[i], in.Keywords)
			}
			return nil
		}}
	}
	a.runTasks(resolves, workers) // a resolve cannot fail
	defer func() {
		for i, v := range views {
			if keeps[i] == nil {
				viewPool.Put(v)
			}
		}
	}()
	// The two cross-campaign folds are the longest tasks by far and go
	// first, so the pool ends on short ones.
	tasks := append(make([]task, 0, 2+8*len(inputs)),
		task{stageAggregate, func() error {
			rep.Aggregate = aggregateBrandSafety(states, a.Meta, inputs, views)
			return nil
		}},
		task{stageFrequency, func() error {
			rep.Frequency = FrequencyOf(states)
			return nil
		}},
	)
	for i, in := range inputs {
		tasks = a.campaignTasks(tasks, sts[i], views[i].facts, in, &rep.PerCampaign[i])
	}
	if err := a.runTasks(tasks, workers); err != nil {
		return nil, err
	}
	return rep, nil
}

// noState stands in for a campaign nothing was ever recorded for; folds
// only read, so one empty state serves them all.
var noState = NewState()

// AuditState materialises one campaign's eight dimensions from its
// state, resolving its publishers through kept (see ReportStates).
func (a *Auditor) AuditState(s *State, kept *Views, in CampaignInput) (CampaignAudit, error) {
	var ca CampaignAudit
	v := a.view(kept, in.ID, s, in.Keywords)
	defer kept.done(v)
	err := a.runTasks(a.campaignTasks(nil, s, v.facts, in, &ca), 1)
	return ca, err
}

// campaignTasks appends one campaign's eight folds, each writing its
// own field of ca. facts is the campaign's resolved publisher view.
func (a *Auditor) campaignTasks(tasks []task, s *State, facts []pubFacts, in CampaignInput, ca *CampaignAudit) []task {
	ca.ID = in.ID
	return append(tasks,
		task{stageBrandSafety, func() error {
			ca.BrandSafety = s.brandSafety(in.ID, facts, in.Report)
			return nil
		}},
		task{stageContext, func() error {
			ctx, err := a.contextOf(s, facts, in.ID, in.Report)
			if err != nil {
				return fmt.Errorf("audit: context for %s: %w", in.ID, err)
			}
			ca.Context = ctx
			return nil
		}},
		task{stagePopularity, func() error {
			pop, err := a.popularityOf(s, facts, in.ID, 10, 10_000_000)
			if err != nil {
				return fmt.Errorf("audit: popularity for %s: %w", in.ID, err)
			}
			ca.Popularity = pop
			return nil
		}},
		task{stageViewability, func() error {
			ca.Viewability = s.Viewability(in.ID)
			return nil
		}},
		task{stageFraud, func() error {
			ca.Fraud = s.Fraud(in.ID)
			return nil
		}},
		task{stageSellers, func() error {
			ca.Sellers = a.SellerAudit(in.ID, in.Report)
			return nil
		}},
		task{stagePooling, func() error {
			ca.Pooling = a.Pooling(in.ID, in.Report)
			return nil
		}},
		task{stageBehavior, func() error {
			ca.Behavior = s.Behavior(in.ID)
			return nil
		}},
	)
}

// runTasks drains the task list with a bounded worker pool. Workers
// claim tasks off a shared atomic counter (no channel churn, cache-
// friendly in-order claiming). A failure parks the pool — no task after
// the failed one is started — while tasks before it, all claimed
// already, run to completion, so the error returned is always that of
// the lowest failing task, at every pool size. workers <= 1 runs the
// one worker inline, no goroutines: the serial path. A task that
// succeeds is timed under its stage.
func (a *Auditor) runTasks(tasks []task, workers int) error {
	var (
		next   atomic.Int64
		failed atomic.Int64 // lowest failing task so far
		errs   = make([]error, len(tasks))
		wg     sync.WaitGroup
	)
	failed.Store(int64(len(tasks)))
	work := func() {
		for {
			i := next.Add(1) - 1
			if i >= failed.Load() {
				return
			}
			start := a.tel.stageStart()
			if errs[i] = tasks[i].run(); errs[i] != nil {
				for f := failed.Load(); i < f && !failed.CompareAndSwap(f, i); f = failed.Load() {
				}
				return
			}
			a.tel.observeStage(tasks[i].stage, start)
		}
	}
	if workers = min(workers, len(tasks)); workers <= 1 {
		work()
	} else {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}
	if f := failed.Load(); f < int64(len(tasks)) {
		return errs[f]
	}
	return nil
}
