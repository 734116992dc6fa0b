package analysis

import "turnup/internal/obs"

// SuiteOptions selects which analyses RunSuiteCtx performs and how the
// run is scheduled and observed.
type SuiteOptions struct {
	// LatentClassK is the number of behaviour classes (default 12, the
	// paper's choice).
	LatentClassK int
	// SkipModels skips the statistical models (Tables 6-10), keeping only
	// the descriptive analyses.
	SkipModels bool
	// Workers caps how many stages execute concurrently; <= 0 means
	// runtime.GOMAXPROCS(0). Results are bit-for-bit identical for every
	// worker count.
	Workers int
	// Stages selects a stage subset by name (see Stages for the declared
	// DAG); the scheduler adds each requested stage's transitive
	// dependencies automatically. Empty means every stage.
	Stages []string
	// Index, when non-nil and built over the same dataset the run is for,
	// is reused instead of deriving a fresh Index — how the serving tier
	// carries incrementally-extended groupings (Index.Append) across
	// ingest generations instead of re-bucketing the whole corpus per
	// run. Ignored when it wraps a different dataset.
	Index *Index

	// Trace, when non-nil, records one span per Suite stage (wall time and
	// allocation deltas; a worker attr says which pool worker ran it). The
	// nil default costs nothing.
	Trace *obs.Tracer
	// Metrics, when non-nil, receives an analysis_stage_seconds histogram,
	// an analysis_stages_total counter, an analysis_stages_inflight gauge,
	// and the §4.5 audit counters (including audit_unverifiable_total for
	// ledger-less datasets).
	Metrics *obs.Registry
	// Progress, when non-nil, is called with each stage name just before
	// the stage runs — the hook hfrepro uses for stderr progress lines.
	// Calls are serialised, but under Workers > 1 their order is the
	// scheduler's dispatch order, not the canonical stage order.
	Progress func(stage string)
}

// Suite bundles every reproduced table and figure.
type Suite struct {
	Taxonomy        TaxonomyResult   // Table 1
	Visibility      VisibilityResult // Table 2
	Growth          MonthlyGrowth    // Figure 1
	PublicTrend     VisibilityTrend  // Figure 2
	TypeShares      TypeShares       // Figure 3
	CompletionTimes CompletionTimes  // Figure 4
	Concentration   Concentration    // Figure 5
	KeyShares       KeyShare         // Figure 6
	DegreesCreated  DegreeDistribution
	DegreesDone     DegreeDistribution // Figure 7
	DegreeGrowth    DegreeGrowth       // Figure 8
	Products        ProductTrend       // Figure 9
	PaymentTrend    PaymentTrend       // Figure 10
	Activities      ActivitiesResult   // Table 3
	Payments        PaymentsResult     // Table 4
	Values          ValueReport        // Table 5 + §4.5
	ValueTrend      ValueTrend         // Figure 11
	ChangePoints    []ChangePoint      // era-boundary scan
	Participation   ParticipationStats // §4.3 repeat-transaction text
	Disputes        DisputeTrend       // §5.1 dispute dynamics
	Centralisation  Centralisation     // monthly participation Gini
	Cohorts         CohortRetention    // join-cohort retention
	Corpus          CorpusStats        // §3 dataset description
	Stimulus        StimulusResult     // COVID stimulus-vs-transformation test

	// Model outputs (nil/zero when SkipModels).
	LTM       *LTMResult       // Table 6, Figures 12-13
	Flows     FlowsResult      // Table 8
	ColdStart *ColdStartResult // Table 7 + §5.2
	ZIPAll    []ZIPEraResult   // Table 9
	ZIPSub    []ZIPEraResult   // Table 10
}
