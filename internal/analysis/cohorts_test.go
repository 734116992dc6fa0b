package analysis

import "testing"

func TestCohortRetention(t *testing.T) {
	d := corpus(t)
	r := Cohorts(NewIndex(d))
	totalUsers := 0
	for _, s := range r.Size {
		totalUsers += s
	}
	if totalUsers == 0 {
		t.Fatal("no cohorts")
	}
	// Month-0 retention is 1 for every non-empty cohort by construction.
	for c := 0; c < len(r.Size); c++ {
		if r.Size[c] == 0 {
			continue
		}
		if r.Retention[c][0] < 0.999 {
			t.Errorf("cohort %d month-0 retention = %v", c, r.Retention[c][0])
		}
	}
	// Transient users: most of a cohort is gone one month after joining,
	// and retention declines with horizon.
	m1 := r.MeanRetentionAt(1)
	m3 := r.MeanRetentionAt(3)
	m6 := r.MeanRetentionAt(6)
	if m1 > 0.6 {
		t.Errorf("month-1 retention = %.3f, users not transient enough", m1)
	}
	if !(m1 >= m3 && m3 >= m6) {
		t.Errorf("retention not declining: m1=%.3f m3=%.3f m6=%.3f", m1, m3, m6)
	}
	// All values are probabilities.
	for c := range r.Retention {
		for k, v := range r.Retention[c] {
			if v < 0 || v > 1 {
				t.Fatalf("retention[%d][%d] = %v", c, k, v)
			}
		}
	}
}
