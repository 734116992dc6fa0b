package analysis

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"turnup/internal/dataset"
	"turnup/internal/forum"
	"turnup/internal/stats"
)

// ZIPUserRecord is one user's covariates and response for the era models
// of Tables 9 and 10.
type ZIPUserRecord struct {
	User       forum.UserID
	Completed  int // response: completed contracts the user was party to
	Disputes   float64
	Positive   float64
	Negative   float64
	MPosts     float64
	Initiated  float64
	Accepted   float64
	FirstTime  bool    // first era in which the user touched the contract system
	LengthDays float64 // days since first activity on the forum
}

// ZIPEraResult is one fitted era model with its sample description.
type ZIPEraResult struct {
	Era     dataset.Era
	Subset  string // "all", "first-time", or "existing"
	Model   *stats.ZIPResult
	Records int
}

// ZIPAllUsers fits Table 9: the all-users model for each era. SET-UP has
// no first-time covariate (everyone is a first-time user of the brand-new
// system).
func ZIPAllUsers(ix *Index) ([]ZIPEraResult, error) {
	specs := make([]zipFitSpec, len(dataset.Eras))
	for i, e := range dataset.Eras {
		specs[i] = zipFitSpec{era: e, subset: "all"}
	}
	return fitZIPSpecs(ix, specs)
}

// ZIPSubgroups fits Table 10: first-time and existing users separately for
// STABLE and COVID-19.
func ZIPSubgroups(ix *Index) ([]ZIPEraResult, error) {
	var specs []zipFitSpec
	for _, e := range []dataset.Era{dataset.EraStable, dataset.EraCovid} {
		for _, subset := range []string{"first-time", "existing"} {
			specs = append(specs, zipFitSpec{era: e, subset: subset})
		}
	}
	return fitZIPSpecs(ix, specs)
}

// zipFitSpec is one (era, subset) model of Tables 9/10.
type zipFitSpec struct {
	era    dataset.Era
	subset string
}

// fitZIPSpecs runs the per-era fits concurrently. Each fit is
// deterministic (no RNG), so parallel execution only needs the results
// collected in spec order — including the first-error-in-order rule the
// sequential loops applied.
func fitZIPSpecs(ix *Index, specs []zipFitSpec) ([]ZIPEraResult, error) {
	out := make([]ZIPEraResult, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, s := range specs {
		wg.Add(1)
		go func(i int, s zipFitSpec) {
			defer wg.Done()
			d, err := NewZIPDesign(ix, s.era, s.subset)
			var model *stats.ZIPResult
			if err == nil {
				model, err = stats.ZIPRegression(d.CountX, d.Y, d.ZeroX, d.CountNames, d.ZeroNames)
			}
			if err != nil {
				if s.subset == "all" {
					errs[i] = fmt.Errorf("analysis: ZIP %v: %w", s.era, err)
				} else {
					errs[i] = fmt.Errorf("analysis: ZIP %v/%s: %w", s.era, s.subset, err)
				}
				return
			}
			out[i] = ZIPEraResult{Era: s.era, Subset: s.subset, Model: model, Records: len(d.Y)}
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// zipRecords builds per-user records for an era. Users of the contract
// system in the era are all makers and takers of contracts created then.
func zipRecords(ix *Index, e dataset.Era, subset string) []ZIPUserRecord {
	firstEra := ix.FirstEraOfUse()
	_, end := e.Span()
	recs := map[forum.UserID]*ZIPUserRecord{}
	get := func(u forum.UserID) *ZIPUserRecord {
		r, ok := recs[u]
		if !ok {
			r = &ZIPUserRecord{User: u, FirstTime: firstEra[u] == e}
			if user, okU := ix.D.Users[u]; okU {
				r.MPosts = float64(user.MarketplacePosts)
				first := user.FirstPost
				if first.IsZero() || user.Joined.Before(first) {
					first = user.Joined
				}
				days := end.Sub(first).Hours() / 24
				if days < 0 {
					days = 0
				}
				r.LengthDays = days
			}
			recs[u] = r
		}
		return r
	}
	// ix.InEra(e) is exactly the Created ∈ [start, end) filter: Validate
	// guarantees every Created falls inside the study window, so EraOf
	// bucketing and the span check agree.
	for _, c := range ix.InEra(e) {
		mr := get(c.Maker)
		tr := get(c.Taker)
		mr.Initiated++
		switch c.Status {
		case forum.StatusPending, forum.StatusDenied, forum.StatusExpired:
		default:
			tr.Accepted++
		}
		if c.IsComplete() {
			mr.Completed++
			tr.Completed++
		}
		if c.Status == forum.StatusDisputed {
			mr.Disputes++
			tr.Disputes++
		}
		switch c.TakerRating {
		case forum.RatingPositive:
			mr.Positive++
		case forum.RatingNegative:
			mr.Negative++
		}
		switch c.MakerRating {
		case forum.RatingPositive:
			tr.Positive++
		case forum.RatingNegative:
			tr.Negative++
		}
	}
	var out []ZIPUserRecord
	for _, r := range recs {
		switch subset {
		case "first-time":
			if !r.FirstTime {
				continue
			}
		case "existing":
			if r.FirstTime {
				continue
			}
		}
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].User < out[j].User })
	return out
}

// ZIPDesign is one Table 9/10 model's inputs: the count and zero designs
// over the model's users, the response (completed contracts), and the
// coefficient names.
type ZIPDesign struct {
	CountX, ZeroX         *stats.Matrix
	Y                     []float64
	CountNames, ZeroNames []string
}

// NewZIPDesign assembles the (era, subset) model's designs, with
// square-root transforms on the skewed covariates, per the paper. The
// count model uses all covariates; the zero model uses disputes, negative
// ratings, the first-time flag and length. Only the all-users models of
// STABLE and COVID-19 carry the first-time flag: in SET-UP every user is
// a first-time user of the brand-new system, and a subset model holds
// one kind of user only.
func NewZIPDesign(ix *Index, e dataset.Era, subset string) (*ZIPDesign, error) {
	recs := zipRecords(ix, e, subset)
	n := len(recs)
	if n < 30 {
		return nil, fmt.Errorf("only %d records", n)
	}
	withFirstTime := subset == "all" && e != dataset.EraSetup
	countNames := []string{
		"(Intercept)", "Disputes", "Positive Rating", "Negative Rating",
		"Marketplace Post Count", "No. of Initiated Contracts", "No. of Accepted Contracts",
	}
	zeroNames := []string{"(Intercept)", "Disputes", "Negative Rating"}
	if withFirstTime {
		countNames = append(countNames, "First-Time Contract User")
		zeroNames = append(zeroNames, "First-Time Contract User")
	}
	countNames = append(countNames, "Length")
	zeroNames = append(zeroNames, "Length")

	countX := stats.NewMatrix(n, len(countNames))
	zeroX := stats.NewMatrix(n, len(zeroNames))
	y := make([]float64, n)
	for i, r := range recs {
		y[i] = float64(r.Completed)
		ft := 0.0
		if r.FirstTime {
			ft = 1
		}
		cols := []float64{1, math.Sqrt(r.Disputes), math.Sqrt(r.Positive), math.Sqrt(r.Negative),
			math.Sqrt(r.MPosts), math.Sqrt(r.Initiated), math.Sqrt(r.Accepted)}
		if withFirstTime {
			cols = append(cols, ft)
		}
		cols = append(cols, r.LengthDays)
		for j, v := range cols {
			countX.Set(i, j, v)
		}
		zcols := []float64{1, math.Sqrt(r.Disputes), math.Sqrt(r.Negative)}
		if withFirstTime {
			zcols = append(zcols, ft)
		}
		zcols = append(zcols, r.LengthDays)
		for j, v := range zcols {
			zeroX.Set(i, j, v)
		}
	}
	return &ZIPDesign{CountX: countX, ZeroX: zeroX, Y: y, CountNames: countNames, ZeroNames: zeroNames}, nil
}
