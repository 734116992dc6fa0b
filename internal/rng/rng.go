// Package rng provides a deterministic pseudo-random number generator and
// the samplers the marketplace simulator and statistical estimators need.
//
// The generator is xoshiro256** seeded through splitmix64, which gives
// high-quality 64-bit streams with a tiny state, cheap forking for
// independent sub-streams, and full reproducibility from a single uint64
// seed. Everything in this repository that consumes randomness takes a
// *rng.Source explicitly; there is no global state.
package rng

import "math"

// Source is a deterministic random source (xoshiro256**).
// It is not safe for concurrent use; fork per goroutine with Fork.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from a single 64-bit seed via splitmix64.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		src.s[i] = z ^ (z >> 31)
	}
	return &src
}

// Fork derives an independent child stream. The child is seeded from the
// parent's next output mixed with a stream label, so distinct labels yield
// distinct streams even when forked from the same state.
func (r *Source) Fork(label uint64) *Source {
	return New(r.Uint64() ^ (label * 0xd1342543de82ef95))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling.
	bound := uint64(n)
	x := r.Uint64()
	hi, lo := mul64(x, bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			x = r.Uint64()
			hi, lo = mul64(x, bound)
		}
	}
	return int(hi)
}

func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t&mask32 + x0*y1
	hi = x1*y1 + t>>32 + w1>>32
	lo = x * y
	return
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool { return r.Float64() < p }

// Norm returns a standard normal variate (Marsaglia polar method).
func (r *Source) Norm() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Exp returns an exponential variate with the given rate (mean 1/rate).
func (r *Source) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp with non-positive rate")
	}
	return -math.Log(1-r.Float64()) / rate
}

// LogNormal returns a log-normal variate where the underlying normal has
// mean mu and standard deviation sigma.
func (r *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.Norm())
}

// Poisson returns a Poisson variate with mean lambda. For small lambda it
// uses Knuth multiplication; for large lambda the PTRS transformed-rejection
// sampler of Hörmann (1993), which is O(1) in lambda.
func (r *Source) Poisson(lambda float64) int {
	switch {
	case lambda <= 0:
		return 0
	case lambda < 30:
		l := math.Exp(-lambda)
		k := 0
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	default:
		return r.poissonPTRS(lambda)
	}
}

func (r *Source) poissonPTRS(lambda float64) int {
	b := 0.931 + 2.53*math.Sqrt(lambda)
	a := -0.059 + 0.02483*b
	invAlpha := 1.1239 + 1.1328/(b-3.4)
	vr := 0.9277 - 3.6224/(b-2)
	for {
		u := r.Float64() - 0.5
		v := r.Float64()
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + lambda + 0.43)
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		if k < 0 || (us < 0.013 && v > us) {
			continue
		}
		lg, _ := math.Lgamma(k + 1)
		if math.Log(v*invAlpha/(a/(us*us)+b)) <= k*math.Log(lambda)-lambda-lg {
			return int(k)
		}
	}
}

// Geometric returns the number of failures before the first success for a
// Bernoulli(p) process.
func (r *Source) Geometric(p float64) int {
	if p <= 0 || p >= 1 {
		if p >= 1 {
			return 0
		}
		panic("rng: Geometric with p out of (0,1]")
	}
	return int(math.Floor(math.Log(1-r.Float64()) / math.Log(1-p)))
}

// Categorical draws an index with probability proportional to weights[i].
// It panics if all weights are zero or any weight is negative.
func (r *Source) Categorical(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("rng: negative categorical weight")
		}
		total += w
	}
	if total <= 0 {
		panic("rng: categorical weights sum to zero")
	}
	u := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// Shuffle permutes the first n integers' order via the provided swap
// function (Fisher-Yates).
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

// Perm returns a random permutation of {0..n-1}.
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}
