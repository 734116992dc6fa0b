package analysis

import (
	"sort"

	"turnup/internal/dataset"
)

// ChangePoint is a detected structural break in the monthly created-
// contract series.
type ChangePoint struct {
	Month dataset.Month
	// Score is the normalised mean-shift statistic: |mean after − mean
	// before| over a ±3-month window, divided by the pooled mean.
	Score float64
}

// ChangePoints supports the DESIGN.md §6 "deductive era boundaries"
// ablation: the paper imposes its era boundaries from external events
// rather than inferring them, and this scan shows the data independently
// breaks near the same months (2019-03 and 2020-03/04).
func ChangePoints(ix *Index, top int) []ChangePoint {
	byMonth := ix.ByMonth()
	var series [dataset.NumMonths]float64
	for m := range byMonth {
		series[m] = float64(len(byMonth[m]))
	}
	const w = 3
	var points []ChangePoint
	for m := w; m <= dataset.NumMonths-w; m++ {
		var before, after float64
		for i := m - w; i < m; i++ {
			before += series[i]
		}
		for i := m; i < m+w; i++ {
			after += series[i]
		}
		before /= w
		after /= w
		pooled := (before + after) / 2
		if pooled == 0 {
			continue
		}
		diff := after - before
		if diff < 0 {
			diff = -diff
		}
		points = append(points, ChangePoint{Month: dataset.Month(m), Score: diff / pooled})
	}
	sort.Slice(points, func(i, j int) bool { return points[i].Score > points[j].Score })
	// Suppress near-duplicate months (adjacent windows overlapping the
	// same break): keep the strongest per ±2-month neighbourhood.
	var out []ChangePoint
	for _, p := range points {
		dup := false
		for _, q := range out {
			dm := int(p.Month) - int(q.Month)
			if dm < 0 {
				dm = -dm
			}
			if dm <= 2 {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, p)
		}
		if len(out) == top {
			break
		}
	}
	return out
}
