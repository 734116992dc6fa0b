package turnup

import (
	"fmt"
	"io"
	"strings"

	"turnup/internal/analysis"
	"turnup/internal/report"
)

// section is one named entry of the report registry. render returns the
// section's text (with its trailing separator) or "" when the underlying
// result was not computed — model sections on a SkipModels run, for
// example — so absent sections vanish instead of printing empty shells.
// stages names the analysis stages whose Suite slots the section reads:
// SectionStages resolves a section request to this list (the scheduler
// then adds transitive stage deps), which is how GET /v1/report/{section}
// runs one or two stages instead of all 29 on a cold cache.
type section struct {
	name   string
	stages []string
	render func(*Results) string
}

// sectionTable registers every report section in canonical order. The
// names are the -sections vocabulary of hfanalyze; RenderAll is exactly
// this table rendered top to bottom.
var sectionTable = []section{
	{"taxonomy", []string{"Taxonomy"}, func(r *Results) string { return report.Taxonomy(r.Taxonomy) + "\n" }},
	{"visibility", []string{"Visibility"}, func(r *Results) string { return report.Visibility(r.Visibility) + "\n" }},
	{"growth", []string{"Growth"}, func(r *Results) string { return report.Growth(r.Growth) + "\n" }},
	{"public-trend", []string{"PublicTrend"}, func(r *Results) string { return report.PublicTrend(r.PublicTrend) + "\n" }},
	{"type-shares", []string{"TypeShares"}, func(r *Results) string { return report.TypeShares(r.TypeShares) + "\n" }},
	{"completion-times", []string{"CompletionTimes"}, func(r *Results) string { return report.CompletionTimes(r.CompletionTimes) + "\n" }},
	{"concentration", []string{"Concentration"}, func(r *Results) string { return report.Concentration(r.Concentration) + "\n" }},
	{"key-shares", []string{"KeyShares"}, func(r *Results) string { return report.KeyShares(r.KeyShares) + "\n" }},
	{"degrees", []string{"DegreesCreated", "DegreesDone"}, func(r *Results) string {
		return report.DegreeDist("created", r.DegreesCreated) +
			report.DegreeDist("completed", r.DegreesDone) + "\n"
	}},
	{"degree-growth", []string{"DegreeGrowth"}, func(r *Results) string { return report.DegreeGrowth(r.DegreeGrowth) + "\n" }},
	{"products", []string{"Products"}, func(r *Results) string { return report.ProductTrend(r.Products) + "\n" }},
	{"payment-trend", []string{"PaymentTrend"}, func(r *Results) string { return report.PaymentTrend(r.PaymentTrend) + "\n" }},
	{"value-trend", []string{"ValueTrend"}, func(r *Results) string { return report.ValueTrend(r.ValueTrend) + "\n" }},
	{"activities", []string{"Activities"}, func(r *Results) string { return report.Activities(r.Activities, 15) + "\n" }},
	{"payments", []string{"Payments"}, func(r *Results) string { return report.Payments(r.Payments, 10) + "\n" }},
	{"values", []string{"Values"}, func(r *Results) string { return report.Values(r.Values, 10) + "\n" }},
	{"participation", []string{"Participation"}, func(r *Results) string { return report.Participation(r.Participation) + "\n" }},
	{"disputes", []string{"Disputes"}, func(r *Results) string { return report.Disputes(r.Disputes) + "\n" }},
	{"centralisation", []string{"Centralisation"}, func(r *Results) string { return report.Centralisation(r.Centralisation) + "\n" }},
	{"cohorts", []string{"Cohorts"}, func(r *Results) string { return report.Cohorts(r.Cohorts) + "\n" }},
	{"corpus", []string{"Corpus"}, func(r *Results) string { return report.Corpus(r.Corpus) + "\n" }},
	{"stimulus", []string{"Stimulus"}, func(r *Results) string { return report.Stimulus(r.Stimulus) + "\n" }},
	{"latent-classes", []string{"LatentClasses"}, func(r *Results) string {
		if r.LTM == nil {
			return ""
		}
		return report.LatentClasses(r.LTM) + "\n"
	}},
	{"class-activity-made", []string{"LatentClasses"}, func(r *Results) string {
		if r.LTM == nil {
			return ""
		}
		return report.ClassActivity(r.LTM, true) + "\n"
	}},
	{"class-activity-accepted", []string{"LatentClasses"}, func(r *Results) string {
		if r.LTM == nil {
			return ""
		}
		return report.ClassActivity(r.LTM, false) + "\n"
	}},
	{"flows", []string{"Flows"}, func(r *Results) string {
		if r.LTM == nil {
			return ""
		}
		return report.Flows(r.Flows, r.LTM) + "\n"
	}},
	{"cold-start", []string{"ColdStart"}, func(r *Results) string {
		if r.ColdStart == nil {
			return ""
		}
		return report.ColdStart(r.ColdStart) + "\n"
	}},
	{"zip-all", []string{"ZIPAll"}, func(r *Results) string {
		if r.ZIPAll == nil {
			return ""
		}
		return report.ZIPModels("Table 9: Zero-Inflated Poisson (all users)", r.ZIPAll) + "\n"
	}},
	{"zip-sub", []string{"ZIPSub"}, func(r *Results) string {
		if r.ZIPSub == nil {
			return ""
		}
		return report.ZIPModels("Table 10: Zero-Inflated Poisson (first-time vs existing)", r.ZIPSub) + "\n"
	}},
}

// sectionIndex maps section name → sectionTable position. The stage
// validation alongside it means a typo in a section's stage list is a
// startup panic, not a runtime "unknown stage" error on the first
// request for that section.
var sectionIndex = func() map[string]int {
	idx := make(map[string]int, len(sectionTable))
	for i, s := range sectionTable {
		idx[s.name] = i
		if len(s.stages) == 0 {
			panic(fmt.Sprintf("turnup: section %q declares no stages", s.name))
		}
		if err := analysis.ValidateStages(s.stages); err != nil {
			panic(fmt.Sprintf("turnup: section %q: %v", s.name, err))
		}
	}
	return idx
}()

// SectionStages resolves report section names to the analysis stages
// that compute their inputs, deduplicated in canonical stage order.
// The list is direct dependencies only — RunOptions.Stages adds each
// stage's transitive DAG dependencies — so it is exactly the subset to
// request for a partial run that renders just those sections. An empty
// name list returns nil (meaning "run everything"); an unknown name is
// an error.
func SectionStages(names ...string) ([]string, error) {
	if len(names) == 0 {
		return nil, nil
	}
	want := make(map[string]bool)
	for _, name := range names {
		i, ok := sectionIndex[name]
		if !ok {
			return nil, unknownSectionError(name)
		}
		for _, st := range sectionTable[i].stages {
			want[st] = true
		}
	}
	stages := make([]string, 0, len(want))
	for _, st := range analysis.Stages() {
		if want[st.Name] {
			stages = append(stages, st.Name)
		}
	}
	return stages, nil
}

// Sections lists every named report section in canonical render order.
func Sections() []string {
	names := make([]string, len(sectionTable))
	for i, s := range sectionTable {
		names[i] = s.name
	}
	return names
}

// ValidateSections reports the first unknown name among names as an error
// listing the registered section vocabulary; an empty list is valid. It is
// the upfront form of the check Render performs, so callers (hfanalyze
// rejecting -sections, hfserved answering 400) can fail before running the
// pipeline rather than after.
func ValidateSections(names ...string) error {
	for _, name := range names {
		if _, ok := sectionIndex[name]; !ok {
			return unknownSectionError(name)
		}
	}
	return nil
}

// unknownSectionError is the canonical bad-section-name error: it names
// the culprit and lists the full valid vocabulary.
func unknownSectionError(name string) error {
	return fmt.Errorf("turnup: unknown section %q (valid: %s)", name, strings.Join(Sections(), ", "))
}

// Render writes the named sections of the results to w, in the order
// given. With no section names it renders every section in canonical
// order (the RenderAll output). Sections whose results were not computed
// render as empty; an unknown section name is an error.
func Render(w io.Writer, r *Results, sections ...string) error {
	if len(sections) == 0 {
		for _, s := range sectionTable {
			if _, err := io.WriteString(w, s.render(r)); err != nil {
				return err
			}
		}
		return nil
	}
	for _, name := range sections {
		i, ok := sectionIndex[name]
		if !ok {
			return unknownSectionError(name)
		}
		if _, err := io.WriteString(w, sectionTable[i].render(r)); err != nil {
			return err
		}
	}
	return nil
}

// RenderAll renders every computed table and figure as text: the whole
// section registry, top to bottom.
func RenderAll(r *Results) string {
	var b strings.Builder
	_ = Render(&b, r) // strings.Builder writes cannot fail
	return b.String()
}

// RenderString renders the named sections (all of them when empty) into a
// string — Render with the buffering done here, so callers that need the
// bytes anyway (the serving tier's rendered-section cache, which stores
// one rendered body per (params, sections, format) key) get them in one
// call. An unknown section name is an error.
func RenderString(r *Results, sections ...string) (string, error) {
	var b strings.Builder
	if err := Render(&b, r, sections...); err != nil {
		return "", err
	}
	return b.String(), nil
}
