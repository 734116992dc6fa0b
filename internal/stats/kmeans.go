package stats

import (
	"fmt"
	"math"

	"turnup/internal/rng"
)

// KMeansResult is a fitted k-means clustering.
type KMeansResult struct {
	K          int
	Centers    [][]float64 // K × D cluster centroids
	Assignment []int       // cluster index per observation
	Sizes      []int       // observations per cluster
	Inertia    float64     // total within-cluster sum of squared distances
	Iters      int
	Converged  bool
}

// KMeansOptions controls the clustering run.
type KMeansOptions struct {
	MaxIter  int // Lloyd iterations per restart (default 100)
	Restarts int // independent restarts, best inertia wins (default 8)
	// PlusPlus selects k-means++ seeding (default true via NewKMeansOptions);
	// plain uniform seeding is kept for the ablation benchmark.
	PlusPlus bool
}

// NewKMeansOptions returns the default options: 100 iterations, 8 restarts,
// k-means++ seeding.
func NewKMeansOptions() KMeansOptions {
	return KMeansOptions{MaxIter: 100, Restarts: 8, PlusPlus: true}
}

// KMeans clusters the rows of data into k groups using Lloyd's algorithm.
// data must be rectangular and non-empty, with k <= len(data).
func KMeans(data [][]float64, k int, opts KMeansOptions, src *rng.Source) (*KMeansResult, error) {
	n := len(data)
	if n == 0 {
		return nil, fmt.Errorf("stats: k-means on empty data")
	}
	d := len(data[0])
	for i, row := range data {
		if len(row) != d {
			return nil, fmt.Errorf("stats: ragged k-means data at row %d", i)
		}
	}
	if k <= 0 || k > n {
		return nil, fmt.Errorf("stats: k-means k=%d with n=%d", k, n)
	}
	if opts.MaxIter <= 0 {
		opts.MaxIter = 100
	}
	if opts.Restarts <= 0 {
		opts.Restarts = 1
	}

	var best *KMeansResult
	for r := 0; r < opts.Restarts; r++ {
		res := kmeansOnce(data, k, opts, src.Fork(uint64(r)+1))
		if best == nil || res.Inertia < best.Inertia {
			best = res
		}
	}
	return best, nil
}

func kmeansOnce(data [][]float64, k int, opts KMeansOptions, src *rng.Source) *KMeansResult {
	n, d := len(data), len(data[0])
	centers := make([][]float64, k)
	if opts.PlusPlus {
		seedPlusPlus(data, centers, src)
	} else {
		for i, idx := range src.Perm(n)[:k] {
			centers[i] = append([]float64(nil), data[idx]...)
		}
	}

	assign := make([]int, n)
	sizes := make([]int, k)
	res := &KMeansResult{K: k}
	for iter := 1; iter <= opts.MaxIter; iter++ {
		res.Iters = iter
		changed := false
		for i := range sizes {
			sizes[i] = 0
		}
		inertia := 0.0
		for i, row := range data {
			bestC, bestD := 0, math.Inf(1)
			for c, cen := range centers {
				dist := sqDist(row, cen)
				if dist < bestD {
					bestC, bestD = c, dist
				}
			}
			if assign[i] != bestC {
				changed = true
				assign[i] = bestC
			}
			sizes[bestC]++
			inertia += bestD
		}
		res.Inertia = inertia
		// Recompute centroids.
		for c := range centers {
			for j := range centers[c] {
				centers[c][j] = 0
			}
		}
		for i, row := range data {
			c := assign[i]
			for j, v := range row {
				centers[c][j] += v
			}
		}
		for c := range centers {
			if sizes[c] == 0 {
				// Re-seed an empty cluster at the point farthest from its
				// centroid to avoid degenerate solutions.
				far, farD := 0, -1.0
				for i, row := range data {
					dist := sqDist(row, centers[assign[i]])
					if dist > farD {
						far, farD = i, dist
					}
				}
				centers[c] = append([]float64(nil), data[far]...)
				continue
			}
			for j := range centers[c] {
				centers[c][j] /= float64(sizes[c])
			}
		}
		if !changed && iter > 1 {
			res.Converged = true
			break
		}
	}
	res.Centers = centers
	res.Assignment = assign
	res.Sizes = sizes
	// Final inertia against the final centroids.
	inertia := 0.0
	for i, row := range data {
		inertia += sqDist(row, centers[assign[i]])
	}
	res.Inertia = inertia
	_ = d
	return res
}

func seedPlusPlus(data [][]float64, centers [][]float64, src *rng.Source) {
	n := len(data)
	centers[0] = append([]float64(nil), data[src.Intn(n)]...)
	dist := make([]float64, n)
	for i, row := range data {
		dist[i] = sqDist(row, centers[0])
	}
	for c := 1; c < len(centers); c++ {
		total := 0.0
		for _, d := range dist {
			total += d
		}
		var idx int
		if total == 0 {
			idx = src.Intn(n)
		} else {
			u := src.Float64() * total
			acc := 0.0
			idx = n - 1
			for i, d := range dist {
				acc += d
				if u < acc {
					idx = i
					break
				}
			}
		}
		centers[c] = append([]float64(nil), data[idx]...)
		for i, row := range data {
			if d := sqDist(row, centers[c]); d < dist[i] {
				dist[i] = d
			}
		}
	}
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}
