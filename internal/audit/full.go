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
// The work fans out across a bounded pool (Auditor.Parallelism
// workers; GOMAXPROCS when 0): every (campaign, dimension) pair plus
// the two cross-campaign aggregates is an independent task writing a
// distinct field of the report, so no result ever crosses a lock. The
// first task error cancels the remaining tasks. Output is
// deterministic — identical to FullAuditSerial bit for bit — because
// task identity, not completion order, decides where a result lands,
// and each analysis reads the store's indexes in insertion order.
func (a *Auditor) FullAudit(inputs []CampaignInput) (*FullReport, error) {
	return a.fullAudit(inputs, a.workers())
}

// FullAuditSerial runs the same audit on one goroutine in the fixed
// legacy order (per campaign: brand safety, context, popularity,
// viewability, fraud, sellers, pooling, behavior; then the two
// aggregates) — the baseline the serial-vs-parallel benchmarks and
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

// task is one unit of audit work: a closure that computes a single
// dimension and stores it into its preassigned slot in the report.
type task struct {
	stage string
	run   func() error
}

func (a *Auditor) fullAudit(inputs []CampaignInput, workers int) (rep *FullReport, err error) {
	start := a.tel.stageStart()
	defer func() { a.tel.observeFull(start, workers, err) }()

	reports := make(map[string]*adnet.VendorReport, len(inputs))
	for _, in := range inputs {
		if in.Report == nil {
			return nil, fmt.Errorf("audit: campaign %s has no vendor report", in.ID)
		}
		reports[in.ID] = in.Report
	}

	rep = &FullReport{PerCampaign: make([]CampaignAudit, len(inputs))}
	tasks := make([]task, 0, 8*len(inputs)+2)
	for i := range inputs {
		in := inputs[i]
		ca := &rep.PerCampaign[i]
		ca.ID = in.ID
		tasks = append(tasks,
			task{stageBrandSafety, func() error {
				ca.BrandSafety = a.BrandSafety(in.ID, in.Report)
				return nil
			}},
			task{stageContext, func() error {
				ctx, err := a.Context(in.ID, in.Keywords, in.Report)
				if err != nil {
					return fmt.Errorf("audit: context for %s: %w", in.ID, err)
				}
				ca.Context = ctx
				return nil
			}},
			task{stagePopularity, func() error {
				pop, err := a.Popularity(in.ID, 10, 10_000_000)
				if err != nil {
					return fmt.Errorf("audit: popularity for %s: %w", in.ID, err)
				}
				ca.Popularity = pop
				return nil
			}},
			task{stageViewability, func() error {
				ca.Viewability = a.Viewability(in.ID)
				return nil
			}},
			task{stageFraud, func() error {
				ca.Fraud = a.Fraud(in.ID)
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
				ca.Behavior = a.Behavior(in.ID)
				return nil
			}},
		)
	}
	tasks = append(tasks,
		task{stageAggregate, func() error {
			rep.Aggregate = a.BrandSafetyAggregate(reports)
			return nil
		}},
		task{stageFrequency, func() error {
			rep.Frequency = a.Frequency()
			return nil
		}},
	)

	if err := a.runTasks(tasks, workers); err != nil {
		return nil, err
	}
	return rep, nil
}

// runTask executes one task with stage timing.
func (a *Auditor) runTask(t task) error {
	start := a.tel.stageStart()
	err := t.run()
	if err == nil {
		a.tel.observeStage(t.stage, start)
	}
	return err
}

// runTasks drains the task list with a bounded worker pool. Workers
// claim tasks off a shared atomic counter (no channel churn, cache-
// friendly in-order claiming); the first error parks the pool —
// every worker re-checks the cancel flag before claiming — and is the
// one returned. workers <= 1 degenerates to an inline loop with no
// goroutines, the serial path.
func (a *Auditor) runTasks(tasks []task, workers int) error {
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers <= 1 {
		for _, t := range tasks {
			if err := a.runTask(t); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next      atomic.Int64
		cancelled atomic.Bool
		errOnce   sync.Once
		firstErr  error
		wg        sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if cancelled.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				if err := a.runTask(tasks[i]); err != nil {
					errOnce.Do(func() {
						firstErr = err
						cancelled.Store(true)
					})
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
