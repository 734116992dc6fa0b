package stats

import (
	"testing"

	"turnup/internal/rng"
)

// threeBlobs generates three well-separated Gaussian clusters.
func threeBlobs(src *rng.Source, perCluster int) ([][]float64, []int) {
	centers := [][]float64{{0, 0}, {10, 10}, {-10, 10}}
	var data [][]float64
	var labels []int
	for c, cen := range centers {
		for i := 0; i < perCluster; i++ {
			data = append(data, []float64{cen[0] + src.Norm(), cen[1] + src.Norm()})
			labels = append(labels, c)
		}
	}
	return data, labels
}

func TestKMeansSeparatesBlobs(t *testing.T) {
	src := rng.New(301)
	data, labels := threeBlobs(src, 100)
	res, err := KMeans(data, 3, NewKMeansOptions(), src)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("did not converge")
	}
	// Every true cluster must map to exactly one fitted cluster.
	mapping := map[int]map[int]int{}
	for i, a := range res.Assignment {
		if mapping[labels[i]] == nil {
			mapping[labels[i]] = map[int]int{}
		}
		mapping[labels[i]][a]++
	}
	used := map[int]bool{}
	for trueC, counts := range mapping {
		best, bestN := -1, 0
		total := 0
		for a, n := range counts {
			total += n
			if n > bestN {
				best, bestN = a, n
			}
		}
		if float64(bestN)/float64(total) < 0.98 {
			t.Errorf("true cluster %d split: %v", trueC, counts)
		}
		if used[best] {
			t.Errorf("two true clusters mapped to fitted cluster %d", best)
		}
		used[best] = true
	}
}

func TestKMeansSizesSumToN(t *testing.T) {
	src := rng.New(307)
	data, _ := threeBlobs(src, 50)
	res, err := KMeans(data, 4, NewKMeansOptions(), src)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range res.Sizes {
		total += s
	}
	if total != len(data) {
		t.Errorf("sizes sum to %d, want %d", total, len(data))
	}
}

func TestKMeansErrors(t *testing.T) {
	src := rng.New(311)
	if _, err := KMeans(nil, 2, NewKMeansOptions(), src); err == nil {
		t.Error("empty data accepted")
	}
	if _, err := KMeans([][]float64{{1}, {2}}, 3, NewKMeansOptions(), src); err == nil {
		t.Error("k > n accepted")
	}
	if _, err := KMeans([][]float64{{1, 2}, {3}}, 1, NewKMeansOptions(), src); err == nil {
		t.Error("ragged data accepted")
	}
	if _, err := KMeans([][]float64{{1}, {2}}, 0, NewKMeansOptions(), src); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestKMeansDeterministic(t *testing.T) {
	data, _ := threeBlobs(rng.New(313), 40)
	a, err := KMeans(data, 3, NewKMeansOptions(), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := KMeans(data, 3, NewKMeansOptions(), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if a.Inertia != b.Inertia {
		t.Errorf("same seed produced different inertia: %v vs %v", a.Inertia, b.Inertia)
	}
	for i := range a.Assignment {
		if a.Assignment[i] != b.Assignment[i] {
			t.Fatalf("assignments differ at %d", i)
		}
	}
}

func TestKMeansPlusPlusNotWorseThanRandom(t *testing.T) {
	// Property the ablation bench relies on: averaged over seeds, ++
	// seeding achieves inertia at least as good as uniform seeding.
	data, _ := threeBlobs(rng.New(317), 60)
	var sumPP, sumRand float64
	for seed := uint64(1); seed <= 10; seed++ {
		pp := NewKMeansOptions()
		pp.Restarts = 1
		rnd := pp
		rnd.PlusPlus = false
		a, err := KMeans(data, 3, pp, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		b, err := KMeans(data, 3, rnd, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		sumPP += a.Inertia
		sumRand += b.Inertia
	}
	if sumPP > sumRand*1.05 {
		t.Errorf("k-means++ mean inertia %v worse than random %v", sumPP/10, sumRand/10)
	}
}

func TestKMeansSingleCluster(t *testing.T) {
	src := rng.New(341)
	data := [][]float64{{1, 1}, {1.1, 0.9}, {0.9, 1.1}}
	res, err := KMeans(data, 1, NewKMeansOptions(), src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sizes[0] != 3 {
		t.Errorf("k=1 sizes = %v", res.Sizes)
	}
	if !almostEq(res.Centers[0][0], 1, 0.1) {
		t.Errorf("k=1 center = %v", res.Centers[0])
	}
}
