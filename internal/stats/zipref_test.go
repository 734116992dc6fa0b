//go:build !race

// The reference comparison runs one goroutine; it is left out of race
// builds, whose instrumentation would stretch its paper-scale fits to
// minutes.

package stats_test

import (
	"fmt"
	"math"
	"testing"

	"turnup/internal/analysis"
	"turnup/internal/dataset"
	"turnup/internal/market"
	"turnup/internal/stats"
)

// TestZIPMatchesColdEMReference fits every Table 9/10 model of several
// generated corpora twice: as ZIPRegression does (warm-started EM, then
// the Newton finish) and from the cold-start EM that ran before the
// finish existed. The two must reach the same optimum: the same flags,
// log-likelihood and identified coefficients to 1e-6. The fit must
// converge, and its ridged log-likelihood must be no lower than at the
// point where the cold EM stopped.
func TestZIPMatchesColdEMReference(t *testing.T) {
	type corpus struct {
		seed  uint64
		scale float64
	}
	var corpora []corpus
	for seed := uint64(1); seed <= 10; seed++ {
		corpora = append(corpora, corpus{seed, 0.05})
	}
	for seed := uint64(1); seed <= 3; seed++ {
		corpora = append(corpora, corpus{seed, 1.0})
	}
	const tol = 1e-6
	for _, c := range corpora {
		if c.scale == 1.0 && testing.Short() {
			continue
		}
		d, _, err := market.Generate(market.Config{Seed: c.seed, Scale: c.scale})
		if err != nil {
			t.Fatal(err)
		}
		ix := analysis.NewIndex(d)
		for _, m := range zipModels() {
			name := fmt.Sprintf("seed %d scale %g %v/%s", c.seed, c.scale, m.era, m.subset)
			des, err := analysis.NewZIPDesign(ix, m.era, m.subset)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got, err := stats.ZIPRegression(des.CountX, des.Y, des.ZeroX, des.CountNames, des.ZeroNames)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, err := stats.ZIPColdReference(des.CountX, des.Y, des.ZeroX)
			if err != nil {
				t.Fatalf("%s: reference: %v", name, err)
			}
			if !got.Converged || !want.Converged {
				t.Errorf("%s: converged %v, reference %v", name, got.Converged, want.Converged)
			}
			if math.Abs(got.LogLik-want.LogLik) > tol {
				t.Errorf("%s: log-likelihood %.9f, reference %.9f", name, got.LogLik, want.LogLik)
			}
			p := len(got.Count.Coef)
			for j, b := range got.Count.Coef {
				if math.Abs(b-want.Coef[j]) > tol {
					t.Errorf("%s: count %s %.9f, reference %.9f", name, got.Count.Names[j], b, want.Coef[j])
				}
			}
			for j, g := range got.Zero.Coef {
				if got.Zero.Identified[j] != want.ZeroIdentified[j] {
					t.Errorf("%s: zero %s identified %v, reference %v", name, got.Zero.Names[j], got.Zero.Identified[j], want.ZeroIdentified[j])
				} else if got.Zero.Identified[j] && math.Abs(g-want.Coef[p+j]) > tol {
					t.Errorf("%s: zero %s %.9f, reference %.9f", name, got.Zero.Names[j], g, want.Coef[p+j])
				}
			}
			obj := stats.ZIPObjective(des.CountX, des.Y, des.ZeroX, got.Count.Coef, got.Zero.Coef)
			if obj < want.EMObjective {
				t.Errorf("%s: ridged log-likelihood %.9f below the cold EM's %.9f", name, obj, want.EMObjective)
			}
		}
	}
}

// TestZIPEMBitExactOnCorpora requires ZIPRegression's EM to take the
// same iterates, bit for bit, as refZIPWarmEM, whose IRLS recomputes
// every mean from the coefficients, on all seven Table 9/10 designs of
// seeds 1–3 and of the cold-pipeline corpus 519888438, at scale 0.05,
// and on each design's intercept-only null model. The latter corpus's
// fits include zero-part M-steps that run to the IRLS iteration cap.
func TestZIPEMBitExactOnCorpora(t *testing.T) {
	capped := 0
	for _, seed := range []uint64{1, 2, 3, 519888438} {
		d, _, err := market.Generate(market.Config{Seed: seed, Scale: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		ix := analysis.NewIndex(d)
		for _, m := range zipModels() {
			name := fmt.Sprintf("seed %d %v/%s", seed, m.era, m.subset)
			des, err := analysis.NewZIPDesign(ix, m.era, m.subset)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			c, err := stats.CompareZIPEM(des.CountX, des.Y, des.ZeroX)
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
			if seed == 519888438 {
				capped += c
			}
			ones := stats.NewMatrix(len(des.Y), 1)
			for i := range des.Y {
				ones.Set(i, 0, 1)
			}
			if _, err := stats.CompareZIPEM(ones, des.Y, ones); err != nil {
				t.Errorf("%s null model: %v", name, err)
			}
		}
	}
	if capped == 0 {
		t.Error("no zero-part M-step of corpus 519888438 ran to the IRLS iteration cap")
	}
}

// zipModel is one (era, subset) model of Tables 9 and 10.
type zipModel struct {
	era    dataset.Era
	subset string
}

func zipModels() []zipModel {
	var out []zipModel
	for _, e := range dataset.Eras {
		out = append(out, zipModel{e, "all"})
	}
	for _, e := range []dataset.Era{dataset.EraStable, dataset.EraCovid} {
		out = append(out, zipModel{e, "first-time"}, zipModel{e, "existing"})
	}
	return out
}
