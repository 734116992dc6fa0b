package analysis

import (
	"fmt"
	"sort"
	"sync"

	"turnup/internal/dataset"
	"turnup/internal/forum"
	"turnup/internal/rng"
	"turnup/internal/stats"
)

// UserMonth is one observation of the latent class model: a user's
// transaction counts in one study month, split into contracts made and
// accepted per type (10 dimensions).
type UserMonth struct {
	User   forum.UserID
	Month  dataset.Month
	Counts []float64 // len 10: made SALE..VOUCH, then accepted SALE..VOUCH
	Class  int       // fitted class assignment
}

// LTMOptions controls the latent transition analysis.
type LTMOptions struct {
	K        int // number of classes (the paper selects 12)
	Restarts int // EM restarts (best log-likelihood kept)
}

// LTMResult is the fitted latent transition model and its derived series.
type LTMResult struct {
	Fit *stats.LCAResult
	Obs []UserMonth

	// MadeSeries[class][month][type] is the total number of contracts of
	// the type made in the month by users assigned to the class (Fig. 12);
	// AcceptedSeries is the taker-side analogue (Fig. 13).
	MadeSeries     [][dataset.NumMonths][forum.NumContractTypes]int
	AcceptedSeries [][dataset.NumMonths][forum.NumContractTypes]int

	// Transition is the month-to-month class transition matrix.
	Transition [][]float64
}

// LatentClasses fits the Table 6 latent class model over user-months with
// at least one transaction, assigns classes, and builds the Figure 12/13
// activity series and the transition matrix.
func LatentClasses(d *dataset.Dataset, opts LTMOptions, src *rng.Source) (*LTMResult, error) {
	if opts.K <= 0 {
		return nil, fmt.Errorf("analysis: LTM requires K > 0, got %d", opts.K)
	}
	if opts.Restarts <= 0 {
		opts.Restarts = 1
	}
	obs := buildUserMonths(d)
	if len(obs) == 0 {
		return nil, fmt.Errorf("analysis: no user-month observations")
	}
	if opts.K > len(obs) {
		return nil, fmt.Errorf("analysis: K=%d exceeds %d observations", opts.K, len(obs))
	}
	data := make([][]float64, len(obs))
	for i, o := range obs {
		data[i] = o.Counts
	}
	// EM restarts are independent: pre-fork one stream per restart in
	// restart order (so the fork sequence is identical to the old
	// sequential loop), run the fits concurrently, then pick the winner by
	// scanning restarts in order with a strictly-greater comparison — the
	// same tie-break the sequential loop applied. Byte-identical results
	// at any parallelism.
	streams := make([]*rng.Source, opts.Restarts)
	for r := range streams {
		streams[r] = src.Fork(uint64(r) + 1)
	}
	fits := make([]*stats.LCAResult, opts.Restarts)
	errs := make([]error, opts.Restarts)
	var wg sync.WaitGroup
	for r := range streams {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			fits[r], errs[r] = stats.FitLCA(data, opts.K, streams[r])
		}(r)
	}
	wg.Wait()
	var fit *stats.LCAResult
	for r := 0; r < opts.Restarts; r++ {
		if errs[r] != nil {
			return nil, errs[r]
		}
		if fit == nil || fits[r].LogLik > fit.LogLik {
			fit = fits[r]
		}
	}

	res := &LTMResult{Fit: fit, Obs: obs}
	for i := range obs {
		obs[i].Class = fit.Assignment[i]
	}

	res.MadeSeries = make([][dataset.NumMonths][forum.NumContractTypes]int, opts.K)
	res.AcceptedSeries = make([][dataset.NumMonths][forum.NumContractTypes]int, opts.K)
	for _, o := range obs {
		for t := 0; t < forum.NumContractTypes; t++ {
			res.MadeSeries[o.Class][o.Month][t] += int(o.Counts[t])
			res.AcceptedSeries[o.Class][o.Month][t] += int(o.Counts[forum.NumContractTypes+t])
		}
	}

	// Transition matrix over consecutive months. obs is sorted by (user,
	// month), so each user's observations form one run: one sequence per
	// run, -1 in the months the user was absent.
	var seqs [][]int
	for i, o := range obs {
		if i == 0 || o.User != obs[i-1].User {
			seq := make([]int, dataset.NumMonths)
			for m := range seq {
				seq[m] = -1
			}
			seqs = append(seqs, seq)
		}
		seqs[len(seqs)-1][o.Month] = o.Class
	}
	res.Transition = stats.TransitionMatrix(seqs, opts.K, false)
	return res, nil
}

// buildUserMonths assembles the observations: every (user, month) with at
// least one contract made or accepted. Contracts are attributed to their
// creation month; a contract is "accepted" for the taker when the deal was
// entered (not denied/expired/pending).
func buildUserMonths(d *dataset.Dataset) []UserMonth {
	type key struct {
		u forum.UserID
		m dataset.Month
	}
	acc := map[key][]float64{}
	get := func(u forum.UserID, m dataset.Month) []float64 {
		k := key{u, m}
		v, ok := acc[k]
		if !ok {
			v = make([]float64, 2*forum.NumContractTypes)
			acc[k] = v
		}
		return v
	}
	for _, c := range d.Contracts {
		m := dataset.MonthOf(c.Created)
		get(c.Maker, m)[int(c.Type)]++
		switch c.Status {
		case forum.StatusPending, forum.StatusDenied, forum.StatusExpired:
		default:
			get(c.Taker, m)[forum.NumContractTypes+int(c.Type)]++
		}
	}
	out := make([]UserMonth, 0, len(acc))
	for k, counts := range acc {
		out = append(out, UserMonth{User: k.u, Month: k.m, Counts: counts})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].User != out[j].User {
			return out[i].User < out[j].User
		}
		return out[i].Month < out[j].Month
	})
	return out
}

// FlowCell is one maker-class → taker-class flow within an era and type
// (Table 8).
type FlowCell struct {
	MakerClass, TakerClass int
	AvgPerMonth            float64 // mean transactions per month of the era
	Share                  float64 // share of the era's transactions of this type
}

// FlowsResult maps (era, type) to flows sorted by share descending.
type FlowsResult struct {
	Flows map[dataset.Era]map[forum.ContractType][]FlowCell
}

// Flows computes Table 8 from the fitted class assignments: each accepted
// contract contributes one (maker class, taker class) event in its era.
func Flows(d *dataset.Dataset, ltm *LTMResult) FlowsResult {
	classOf := map[[2]int]int{}
	for _, o := range ltm.Obs {
		classOf[[2]int{int(o.User), int(o.Month)}] = o.Class
	}
	counts := map[dataset.Era]map[forum.ContractType]map[[2]int]int{}
	totals := map[dataset.Era]map[forum.ContractType]int{}
	for _, c := range d.Contracts {
		switch c.Status {
		case forum.StatusPending, forum.StatusDenied, forum.StatusExpired:
			continue
		}
		m := int(dataset.MonthOf(c.Created))
		e := dataset.EraOf(c.Created)
		mc, okM := classOf[[2]int{int(c.Maker), m}]
		tc, okT := classOf[[2]int{int(c.Taker), m}]
		if !okM || !okT {
			continue
		}
		if counts[e] == nil {
			counts[e] = map[forum.ContractType]map[[2]int]int{}
			totals[e] = map[forum.ContractType]int{}
		}
		if counts[e][c.Type] == nil {
			counts[e][c.Type] = map[[2]int]int{}
		}
		counts[e][c.Type][[2]int{mc, tc}]++
		totals[e][c.Type]++
	}
	r := FlowsResult{Flows: map[dataset.Era]map[forum.ContractType][]FlowCell{}}
	for e, byType := range counts {
		r.Flows[e] = map[forum.ContractType][]FlowCell{}
		months := float64(len(e.Months()))
		for t, cells := range byType {
			var list []FlowCell
			for k, n := range cells {
				list = append(list, FlowCell{
					MakerClass:  k[0],
					TakerClass:  k[1],
					AvgPerMonth: float64(n) / months,
					Share:       float64(n) / float64(totals[e][t]),
				})
			}
			sort.Slice(list, func(i, j int) bool {
				if list[i].Share != list[j].Share {
					return list[i].Share > list[j].Share
				}
				if list[i].MakerClass != list[j].MakerClass {
					return list[i].MakerClass < list[j].MakerClass
				}
				return list[i].TakerClass < list[j].TakerClass
			})
			r.Flows[e][t] = list
		}
	}
	return r
}

// Top returns the first n flows for an era and type.
func (r FlowsResult) Top(e dataset.Era, t forum.ContractType, n int) []FlowCell {
	list := r.Flows[e][t]
	if len(list) > n {
		list = list[:n]
	}
	return list
}
