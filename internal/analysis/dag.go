package analysis

import (
	"fmt"
	"strings"

	"turnup/internal/rng"
)

// StageInfo describes one declared stage of the analysis DAG: its name,
// the stages whose results it reads, and whether it belongs to the
// statistical-model tier that SkipModels drops.
type StageInfo struct {
	Name  string
	Deps  []string
	Model bool
}

// stageSpec is the internal declaration of one Suite stage. fn computes
// the stage into its own slot(s) of res and never writes another stage's
// slot — that ownership discipline is what makes concurrent execution
// safe without locks. Stages read the corpus through the run's shared
// Index (ix.D for raw access), so derived groupings and the obligation
// classification table are built once per run instead of once per stage.
// rngLabel, when non-zero, assigns the stage a forked RNG stream; the
// scheduler forks every labelled stream from the suite source in
// declaration order before any stage runs, so streams are identical for
// every worker count and stage subset (and match the fork order of the
// old sequential pipeline).
type stageSpec struct {
	name     string
	deps     []string
	model    bool
	rngLabel uint64
	fn       func(ix *Index, res *Suite, opts *SuiteOptions, src *rng.Source) error
}

// pure wraps an infallible descriptive stage.
func pure(fn func(ix *Index, res *Suite)) func(*Index, *Suite, *SuiteOptions, *rng.Source) error {
	return func(ix *Index, res *Suite, _ *SuiteOptions, _ *rng.Source) error {
		fn(ix, res)
		return nil
	}
}

// stageTable declares the full analysis DAG in canonical order:
// descriptive stages first, model stages last. Declaration order is
// topological — every dep precedes its dependents — which init verifies
// together with name uniqueness, so the scheduler can trust the table.
var stageTable = []stageSpec{
	{name: "Taxonomy", fn: pure(func(ix *Index, res *Suite) { res.Taxonomy = Taxonomy(ix.D) })},
	{name: "Visibility", fn: pure(func(ix *Index, res *Suite) { res.Visibility = Visibility(ix.D) })},
	{name: "Growth", fn: pure(func(ix *Index, res *Suite) { res.Growth = Growth(ix) })},
	{name: "PublicTrend", fn: pure(func(ix *Index, res *Suite) { res.PublicTrend = PublicTrend(ix) })},
	{name: "TypeShares", fn: pure(func(ix *Index, res *Suite) { res.TypeShares = TypeShareTrend(ix) })},
	{name: "CompletionTimes", fn: pure(func(ix *Index, res *Suite) { res.CompletionTimes = CompletionTimeTrend(ix.D) })},
	{name: "Concentration", fn: pure(func(ix *Index, res *Suite) { res.Concentration = Concentrate(ix) })},
	{name: "KeyShares", fn: pure(func(ix *Index, res *Suite) { res.KeyShares = KeyShares(ix) })},
	{name: "DegreesCreated", fn: pure(func(ix *Index, res *Suite) { res.DegreesCreated = DegreeDist(ix.D.Contracts) })},
	{name: "DegreesDone", fn: pure(func(ix *Index, res *Suite) { res.DegreesDone = DegreeDist(ix.Completed()) })},
	{name: "DegreeGrowth", fn: pure(func(ix *Index, res *Suite) { res.DegreeGrowth = DegreeGrowthTrend(ix, false) })},
	{name: "Products", fn: pure(func(ix *Index, res *Suite) { res.Products = ProductTrends(ix) })},
	{name: "PaymentTrend", fn: pure(func(ix *Index, res *Suite) { res.PaymentTrend = PaymentTrends(ix) })},
	{name: "Activities", fn: pure(func(ix *Index, res *Suite) { res.Activities = Activities(ix) })},
	{name: "Payments", fn: pure(func(ix *Index, res *Suite) { res.Payments = PaymentMethods(ix) })},
	{name: "ChangePoints", fn: pure(func(ix *Index, res *Suite) { res.ChangePoints = ChangePoints(ix, 3) })},
	{name: "Participation", fn: pure(func(ix *Index, res *Suite) { res.Participation = Participation(ix) })},
	{name: "Disputes", fn: pure(func(ix *Index, res *Suite) { res.Disputes = Disputes(ix.D) })},
	{name: "Centralisation", fn: pure(func(ix *Index, res *Suite) { res.Centralisation = CentralisationTrend(ix) })},
	{name: "Cohorts", fn: pure(func(ix *Index, res *Suite) { res.Cohorts = Cohorts(ix) })},
	{name: "Corpus", fn: pure(func(ix *Index, res *Suite) { res.Corpus = Corpus(ix.D) })},
	{name: "Stimulus", fn: pure(func(ix *Index, res *Suite) { res.Stimulus = StimulusTest(ix.D) })},
	{name: "Values", fn: func(ix *Index, res *Suite, opts *SuiteOptions, _ *rng.Source) error {
		res.Values = Values(ix)
		if opts.Metrics != nil {
			opts.Metrics.Counter("audit_high_value_total").Add(int64(res.Values.Audit.HighValue))
			opts.Metrics.Counter("audit_confirmed_total").Add(int64(res.Values.Audit.Confirmed))
			opts.Metrics.Counter("audit_revised_total").Add(int64(res.Values.Audit.Revised))
			opts.Metrics.Counter("audit_unclear_total").Add(int64(res.Values.Audit.Unclear))
			opts.Metrics.Counter("audit_unverifiable_total").Add(int64(res.Values.Audit.Unverifiable))
		}
		return nil
	}},
	{name: "ValueTrend", deps: []string{"Values"},
		fn: pure(func(ix *Index, res *Suite) { res.ValueTrend = ValueTrends(ix, res.Values) })},
	{name: "LatentClasses", model: true, rngLabel: 1,
		fn: func(ix *Index, res *Suite, opts *SuiteOptions, src *rng.Source) error {
			ltm, err := LatentClasses(ix.D, LTMOptions{K: opts.LatentClassK, Restarts: 2}, src)
			if err != nil {
				return fmt.Errorf("analysis: latent classes: %w", err)
			}
			res.LTM = ltm
			return nil
		}},
	{name: "Flows", deps: []string{"LatentClasses"}, model: true,
		fn: pure(func(ix *Index, res *Suite) { res.Flows = Flows(ix.D, res.LTM) })},
	{name: "ColdStart", model: true, rngLabel: 2,
		fn: func(ix *Index, res *Suite, _ *SuiteOptions, src *rng.Source) error {
			cs, err := ColdStart(ix, src)
			if err != nil {
				return fmt.Errorf("analysis: cold start: %w", err)
			}
			res.ColdStart = cs
			return nil
		}},
	{name: "ZIPAll", model: true,
		fn: func(ix *Index, res *Suite, _ *SuiteOptions, _ *rng.Source) error {
			var err error
			if res.ZIPAll, err = ZIPAllUsers(ix); err != nil {
				return fmt.Errorf("analysis: ZIP (all users): %w", err)
			}
			return nil
		}},
	{name: "ZIPSub", model: true,
		fn: func(ix *Index, res *Suite, _ *SuiteOptions, _ *rng.Source) error {
			var err error
			if res.ZIPSub, err = ZIPSubgroups(ix); err != nil {
				return fmt.Errorf("analysis: ZIP (subgroups): %w", err)
			}
			return nil
		}},
}

// stageIndex maps stage name → stageTable position.
var stageIndex = func() map[string]int {
	idx := make(map[string]int, len(stageTable))
	for i, st := range stageTable {
		idx[st.name] = i
	}
	return idx
}()

func init() {
	// The table is a compile-time constant; a broken edit should fail the
	// first test run loudly rather than hang or misschedule.
	seen := make(map[string]int, len(stageTable))
	for i, st := range stageTable {
		if j, dup := seen[st.name]; dup {
			panic(fmt.Sprintf("analysis: stage %q declared twice (positions %d and %d)", st.name, j, i))
		}
		seen[st.name] = i
		for _, dep := range st.deps {
			j, ok := seen[dep]
			if !ok {
				panic(fmt.Sprintf("analysis: stage %q depends on %q, which is undeclared or declared later (table must be topological)", st.name, dep))
			}
			if !st.model && stageTable[j].model {
				panic(fmt.Sprintf("analysis: descriptive stage %q cannot depend on model stage %q (SkipModels would orphan it)", st.name, dep))
			}
		}
	}
}

// Stages returns the declared analysis DAG in canonical (topological)
// order: each stage's name, dependencies and model tier.
func Stages() []StageInfo {
	out := make([]StageInfo, len(stageTable))
	for i, st := range stageTable {
		out[i] = StageInfo{
			Name:  st.name,
			Deps:  append([]string(nil), st.deps...),
			Model: st.model,
		}
	}
	return out
}

// ValidateStages reports the first unknown name among names as an error
// listing the declared stage vocabulary; a nil or empty list is valid.
// It is the upfront form of the check selectStages performs, so callers
// (CLIs rejecting flags, the HTTP server answering 400) can fail fast
// before generating a corpus or starting a run.
func ValidateStages(names []string) error {
	for _, name := range names {
		if _, ok := stageIndex[name]; !ok {
			return unknownStageError(name)
		}
	}
	return nil
}

// unknownStageError is the canonical bad-stage-name error: it names the
// culprit and lists the full valid vocabulary.
func unknownStageError(name string) error {
	var names []string
	for _, st := range Stages() {
		names = append(names, st.Name)
	}
	return fmt.Errorf("analysis: unknown stage %q (valid: %s)", name, strings.Join(names, ", "))
}

// selectStages resolves a requested subset to the set of stageTable
// indexes to run, in table order: each requested stage plus its
// transitive dependencies, minus the model tier when skipModels is set.
// An empty request selects every stage. Requesting an unknown stage, or a
// model stage together with skipModels, is an error.
func selectStages(requested []string, skipModels bool) ([]int, error) {
	if len(requested) == 0 {
		sel := make([]int, 0, len(stageTable))
		for i, st := range stageTable {
			if skipModels && st.model {
				continue
			}
			sel = append(sel, i)
		}
		return sel, nil
	}
	selected := make(map[int]bool)
	var add func(name string) error
	add = func(name string) error {
		i, ok := stageIndex[name]
		if !ok {
			return unknownStageError(name)
		}
		if selected[i] {
			return nil
		}
		selected[i] = true
		for _, dep := range stageTable[i].deps {
			if err := add(dep); err != nil {
				return err
			}
		}
		return nil
	}
	for _, name := range requested {
		i, ok := stageIndex[name]
		if !ok {
			return nil, unknownStageError(name)
		}
		if skipModels && stageTable[i].model {
			return nil, fmt.Errorf("analysis: stage %q is a model stage and unavailable with SkipModels", name)
		}
		if err := add(name); err != nil {
			return nil, err
		}
	}
	sel := make([]int, 0, len(selected))
	for i := range stageTable {
		if selected[i] {
			sel = append(sel, i)
		}
	}
	return sel, nil
}
