package main

import (
	"sort"
	"time"
)

// The gated timings are taken from the faster part of a run. The
// benchmark runs on a few virtual CPUs of a shared host, where other
// tenants' load comes and goes, in bursts of seconds and in spells of
// minutes, and slows whatever runs beside it by a third or more. A figure
// averaged over the whole run measures how much of that load the run
// happened to meet. Each phase is spread over the whole run in parts
// (cold-pipeline's rounds; the segments of an alternating schedule, see
// alternate), so a burst meets a part of every phase, not the whole of one,
// and each figure is a good quartile: the report latency a quarter of the
// run's reports beat, the rate a quarter of the stretches beat. A quartile
// ignores bursts that cover up to three quarters of the run, and it rests
// on many samples, so it moves less between runs than the single best
// stretch would under a steady spell of load. The work in every stretch is
// the same, so a change that slows the program slows every stretch and
// moves the quartile with it.

// goodQuartile is the quantile the gated figures are taken at: of latency
// and CPU time, the value a quarter of samples or stretches beat.
const goodQuartile = 0.25

// stretch is a run of completed ops and the time it covers: from its
// first send to its last completion.
type stretch struct {
	ss       []*sample // the ok samples
	from, to time.Duration
}

// stretchesOf groups consecutive parts of a phase (rounds, or the parts of
// an alternating schedule), in order, into n stretches of whole parts.
func stretchesOf(parts [][]*sample, n int) []stretch {
	n = min(n, len(parts))
	out := make([]stretch, 0, n)
	for i := 0; i < n; i++ {
		st := stretch{from: -1}
		for _, part := range parts[i*len(parts)/n : (i+1)*len(parts)/n] {
			for _, s := range part {
				if st.from < 0 || s.sent < st.from {
					st.from = s.sent
				}
				st.to = max(st.to, s.done)
				if s.err == "" {
					st.ss = append(st.ss, s)
				}
			}
		}
		if st.from >= 0 {
			out = append(out, st)
		}
	}
	return out
}

// quartileLatency is the goodQuartile of the ok samples' latency from
// due (ms).
func quartileLatency(ss []*sample) float64 {
	return quantile(latencies(ss), goodQuartile)
}

// rate is a stretch's completions per second.
func (st stretch) rate() float64 {
	if span := (st.to - st.from).Seconds(); span > 0 {
		return float64(len(st.ss)) / span
	}
	return 0
}

// quartileRate is the completion rate a quarter of the stretches beat.
func quartileRate(sts []stretch) float64 {
	var rates []float64
	for _, st := range sts {
		rates = append(rates, st.rate())
	}
	sort.Float64s(rates)
	return quantile(rates, 1-goodQuartile)
}

// quartileCPU is the servers' CPU time per completed op (ms) that a
// quarter of the stretches beat.
func (o *outcome) quartileCPU(sts []stretch) float64 {
	var per []float64
	for _, st := range sts {
		if cpu := o.cpuAt(st.to) - o.cpuAt(st.from); cpu > 0 && len(st.ss) > 0 {
			per = append(per, cpu*1000/float64(len(st.ss)))
		}
	}
	sort.Float64s(per)
	return quantile(per, goodQuartile)
}

// perStretch lists each stretch's median latency (ms) and completion
// rate, for the detail line.
func perStretch(lat, rate []stretch) map[string][]float64 {
	out := map[string][]float64{}
	for _, st := range lat {
		out["p50_ms"] = append(out["p50_ms"], median(latencies(st.ss)))
	}
	for _, st := range rate {
		out["per_s"] = append(out["per_s"], st.rate())
	}
	return out
}

// cpuPoint is one reading of the servers' summed CPU seconds, at an offset
// from the start of measurement.
type cpuPoint struct {
	at  time.Duration
	cpu float64
}

// cpuSampleEvery is how often measurement reads the servers' CPU time.
// /proc counts it in 10 ms ticks, so a stretch of a second or more reads
// it to within a few percent.
const cpuSampleEvery = 50 * time.Millisecond

// cpuAt interpolates the servers' CPU seconds at offset t between the two
// readings around it.
func (o *outcome) cpuAt(t time.Duration) float64 {
	tr := o.cpuTrace
	if len(tr) == 0 {
		return 0
	}
	i := sort.Search(len(tr), func(i int) bool { return tr[i].at >= t })
	switch {
	case i == 0:
		return tr[0].cpu
	case i == len(tr):
		return tr[len(tr)-1].cpu
	}
	a, b := tr[i-1], tr[i]
	return a.cpu + (b.cpu-a.cpu)*float64(t-a.at)/float64(b.at-a.at)
}
