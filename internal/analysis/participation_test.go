package analysis

import (
	"testing"

	"turnup/internal/dataset"
)

func TestParticipationSectionFourThree(t *testing.T) {
	d := corpus(t)
	p := Participation(NewIndex(d))
	if p.Makers.Users == 0 || p.Takers.Users == 0 {
		t.Fatal("no participants")
	}
	// Most makers initiate one transaction (paper: 49%); a sizeable block
	// makes two (16%); few exceed 20 (5%).
	if p.Makers.ShareOne < 0.30 || p.Makers.ShareOne > 0.70 {
		t.Errorf("maker one-transaction share = %.3f, want ~0.49", p.Makers.ShareOne)
	}
	if p.Makers.ShareTwo < 0.05 || p.Makers.ShareTwo > 0.35 {
		t.Errorf("maker two-transaction share = %.3f, want ~0.16", p.Makers.ShareTwo)
	}
	if p.Makers.ShareOver20 > 0.15 {
		t.Errorf("maker >20 share = %.3f, want small", p.Makers.ShareOver20)
	}
	// The taker tail is far longer than the maker tail (paper: two takers
	// above 9,000 vs two makers above 700).
	if p.Takers.MaxCount <= p.Makers.MaxCount {
		t.Errorf("taker max %d not above maker max %d", p.Takers.MaxCount, p.Makers.MaxCount)
	}
	// Median user on both sides is a one-or-two-timer.
	if p.Makers.MedianCount > 3 || p.Takers.MedianCount > 3 {
		t.Errorf("medians: makers %.1f takers %.1f", p.Makers.MedianCount, p.Takers.MedianCount)
	}
	// Shares are consistent.
	for _, side := range []SideParticipation{p.Makers, p.Takers} {
		if side.ShareOne+side.ShareTwo+side.ShareOver20 > 1.0001 {
			t.Errorf("inconsistent shares: %+v", side)
		}
		if len(side.Top) == 0 || side.Top[0] != side.MaxCount {
			t.Errorf("top list inconsistent: %+v", side)
		}
		for i := 1; i < len(side.Top); i++ {
			if side.Top[i] > side.Top[i-1] {
				t.Errorf("top list not sorted: %v", side.Top)
			}
		}
	}
}

func TestParticipationEmpty(t *testing.T) {
	d := dataset.New()
	p := Participation(NewIndex(d))
	if p.Makers.Users != 0 || p.Takers.Users != 0 {
		t.Errorf("empty dataset participation: %+v", p)
	}
}

func TestDisputesStormingWindow(t *testing.T) {
	d := corpus(t)
	tr := Disputes(d)
	late := tr.LateSetupMean()
	stable := tr.EraMean(dataset.EraStable)
	if late < 1.4*stable {
		t.Errorf("late SET-UP dispute share %.4f not elevated vs STABLE %.4f", late, stable)
	}
	// The storming peak sits in the paper's 2-3% band; STABLE near 1%.
	if late < 0.012 || late > 0.04 {
		t.Errorf("late SET-UP dispute share = %.4f, want ~0.02-0.03", late)
	}
	if stable < 0.004 || stable > 0.025 {
		t.Errorf("STABLE dispute share = %.4f, want ~0.01", stable)
	}
	for m, s := range tr.Share {
		if s < 0 || s > 1 {
			t.Fatalf("month %d share %v", m, s)
		}
	}
}
