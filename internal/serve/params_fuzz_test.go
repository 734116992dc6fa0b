package serve

import (
	"net/http"
	"net/url"
	"testing"

	"turnup"
	"turnup/internal/ingest"
)

// FuzzParseParams feeds arbitrary query strings to parseParams, the
// first thing every report request runs. It must never panic, and any
// Params it accepts must be one the pipeline can run: a scale in
// (0, MaxScale] (never NaN), a class count in [1, MaxK], known stages
// with no model stage under models=false, and window/as-of only beside
// a dataset, in a form ingest accepts.
func FuzzParseParams(f *testing.F) {
	for _, q := range []string{
		"",
		"seed=1&scale=0.05&k=12&models=true",
		"k=16", "k=17", "k=0", "k=-1", "k=100000", "k=99999999999999999999",
		"scale=NaN", "scale=nan", "scale=+Inf", "scale=1e-320", "scale=1", "scale=1.0000001",
		"seed=18446744073709551615", "seed=-1",
		"models=false&stages=ZIPAll", "models=false&stages=Growth,Taxonomy",
		"stages=Bogus", "stages=,,Growth,", "models=maybe",
		"window=30d&as-of=2020-01-01&dataset=ds-x", "window=era-to-date",
		"as-of=2020-13-01&dataset=ds-x", "window=-5d&dataset=ds-x",
		"%zz", "k=%31%36", "k=1&k=99",
	} {
		f.Add(q)
	}
	s := New(Options{})
	model := map[string]bool{}
	for _, st := range turnup.Stages() {
		model[st.Name] = st.Model
	}
	f.Fuzz(func(t *testing.T, raw string) {
		r := &http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/v1/report", RawQuery: raw}}
		p, err := s.parseParams(r)
		if err != nil {
			return // rejected: the handler answers 400
		}
		if !(p.Scale > 0 && p.Scale <= s.opts.MaxScale) {
			t.Fatalf("%q: accepted scale %g outside (0, %g]", raw, p.Scale, s.opts.MaxScale)
		}
		if p.K < 1 || p.K > MaxK {
			t.Fatalf("%q: accepted k %d outside [1, %d]", raw, p.K, MaxK)
		}
		if err := turnup.ValidateStages(p.Stages...); err != nil {
			t.Fatalf("%q: accepted stages %q: %v", raw, p.Stages, err)
		}
		for _, st := range p.Stages {
			if !p.Models && model[st] {
				t.Fatalf("%q: accepted model stage %q under models=false", raw, st)
			}
		}
		if p.Window != "" || p.AsOf != "" {
			if r.URL.Query().Get("dataset") == "" {
				t.Fatalf("%q: accepted window %q / as-of %q without a dataset", raw, p.Window, p.AsOf)
			}
			if err := ingest.ValidateWindow(p.Window, p.AsOf); err != nil {
				t.Fatalf("%q: accepted window %q / as-of %q: %v", raw, p.Window, p.AsOf, err)
			}
		}
	})
}
