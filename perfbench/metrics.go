package main

import (
	"math"
	"sort"
	"time"

	"turnup"
)

// metricDef names one metric the benchmark emits. BENCHMARK.json lists the
// same names, units and directions; a test keeps the two in step.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// moves records, for a per-layer metric, which end-to-end metric on
	// which workload it should move — the model a later change is judged
	// against.
	moves string
}

// endToEnd are the metrics every workload's untraced run reports in its
// result line: what a client of the serving tier sees, plus set-up time so
// work moved into set-up shows. The timings are good quartiles of their
// phase (see stretch.go). report_p25_ms is the report latency a quarter of
// the workload's reports beat: on cold-pipeline the median over its
// corpora of each one's p25, on hot-read the hits at 50 rps, on
// ingest-mixed the full-history report right after each append. The
// median is printed beside it as report_p50_ms but not gated: under a
// spell of the host's load that covers half a run, the median moves with
// the load. throughput_per_s is a rate the server sets, not the schedule:
// cold reports completed per second by two clients on cold-pipeline, hits
// completed per second in the back-to-back bursts on hot-read, appends
// completed per second in the bursts on ingest-mixed. cpu_ms_per_op is the
// server's CPU time per op in the same stretches as throughput_per_s.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "report_p25_ms", unit: "ms", better: "lower"},
	{name: "throughput_per_s", unit: "1/s", better: "higher"},
	{name: "heap_mib", unit: "MiB", better: "lower"},
	{name: "cpu_ms_per_op", unit: "ms", better: "lower"},
}

// printedOnly are end-to-end metrics printed with the run's report but
// kept out of the result line, which every workload fills with the same
// names. The write metrics and max_rps exist on one workload only; the
// write path is gated through ingest-mixed's throughput_per_s, and
// max_rps takes one of a few step rates, so it reads the same run after
// run. The report median and tail are printed on every workload but not
// gated: the median moves with spells of the host's load (see endToEnd),
// and on a
// two-vCPU virtual machine whose hypervisor steals 1-25% of CPU time
// during a run, the p99 of a sub-millisecond hit moved threefold between
// runs of the same code.
var printedOnly = []metricDef{
	{name: "report_p50_ms", unit: "ms", better: "lower"},
	{name: "report_tail_ms", unit: "ms", better: "lower"},
	{name: "write_p50_ms", unit: "ms", better: "lower"},
	{name: "write_tail_ms", unit: "ms", better: "lower"},
	{name: "max_rps", unit: "1/s", better: "higher"},
	{name: "failed_frac", unit: "ratio", better: "lower"},
}

// ringMoves: no kept workload routes through hfrouter (routed-read was
// dropped as unsteady on two vCPUs), so the ring's metrics gate nothing;
// the traced run measures the router and its key distribution in-process.
const ringMoves = "none gated: no kept workload routes; traced runs only"

// perLayer are the traced run's metrics, one or more per layer, each with
// the end-to-end metric and workload it should move.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"market.generate_ms", "ms", "lower", "report_p25_ms, throughput_per_s on cold-pipeline; ~0 elsewhere"},
		{"textmine.classify_ms", "ms", "lower", "report_p25_ms on cold-pipeline, through group build"},
		{"analysis.groups_ms", "ms", "lower", "report_p25_ms on cold-pipeline and ingest-mixed"},
		{"analysis.index_append_ms", "ms", "lower", "throughput_per_s, write_p50_ms on ingest-mixed"},
		{"analysis.suite_ms.p1", "ms", "lower", "report_p25_ms, throughput_per_s on cold-pipeline"},
		{"analysis.suite_ms.pN", "ms", "lower", "report_p25_ms, throughput_per_s on cold-pipeline"},
		{"analysis.critical_path_ms", "ms", "lower", "report_p25_ms on cold-pipeline"},
		{"analysis.busy_frac", "ratio", "higher", "throughput_per_s on cold-pipeline"},
		{"report.render_ms", "ms", "lower", "report_p25_ms on cold-pipeline and ingest-mixed; no move on hot-read"},
		{"report.render_section_ms", "ms", "lower", "report_p25_ms on cold-pipeline and ingest-mixed; no move on hot-read"},
		{"cache.result_hit_ratio", "ratio", "higher", "report_p25_ms on cold-pipeline; heap_mib on all"},
		{"cache.coalesced", "count", "higher", "report_p25_ms on cold-pipeline"},
		{"cache.sizebytes_ms", "ms", "lower", "report_p25_ms on cold-pipeline"},
		{"cache.result_bytes", "B", "lower", "heap_mib on all workloads"},
		{"cache.result_get_us", "us", "lower", "report_p25_ms on ingest-mixed"},
		{"cache.render_hit_ratio", "ratio", "higher", "report_p25_ms on hot-read and ingest-mixed"},
		{"cache.render_get_us", "us", "lower", "report_p25_ms on hot-read"},
		{"cache.render_put_us", "us", "lower", "report_p25_ms on ingest-mixed"},
		{"cache.render_bytes", "B", "lower", "heap_mib on all workloads"},
		{"cache.evictions", "count", "lower", "heap_mib on all workloads"},
		{"cache.invalidations_per_write", "ratio", "lower", "report_p25_ms on ingest-mixed"},
		{"serve.hit_text_us", "us", "lower", "report_p25_ms, cpu_ms_per_op on hot-read"},
		{"serve.hit_json_us", "us", "lower", "report_p25_ms, cpu_ms_per_op on hot-read"},
		{"serve.hit_gzip_us", "us", "lower", "report_p25_ms, cpu_ms_per_op on hot-read"},
		{"serve.not_modified_us", "us", "lower", "report_p25_ms, cpu_ms_per_op on hot-read"},
		{"serve.wire_us", "us", "lower", "report_p25_ms on hot-read"},
		{"serve.resp_bytes", "B", "lower", "cpu_ms_per_op on hot-read"},
		{"dataset.decode_binary_ms", "ms", "lower", "setup_s on ingest-mixed"},
		{"dataset.read_csv_ms", "ms", "lower", "setup_s on ingest-mixed (CSV uploads)"},
		{"dataset.digest_ms", "ms", "lower", "setup_s on ingest-mixed"},
		{"ingest.decode_us", "us", "lower", "throughput_per_s, write_p50_ms on ingest-mixed"},
		{"ingest.validate_us", "us", "lower", "throughput_per_s, write_p50_ms on ingest-mixed"},
		{"ingest.apply_us", "us", "lower", "throughput_per_s, write_p50_ms on ingest-mixed"},
		{"store.append_ms", "ms", "lower", "throughput_per_s, write_p50_ms on ingest-mixed"},
		{"ingest.window_ms", "ms", "lower", "report_p25_ms on ingest-mixed"},
		{"ring.owner_ns", "ns", "lower", ringMoves},
		{"ring.route_us", "us", "lower", ringMoves},
		{"ring.hop_ms", "ms", "lower", ringMoves},
		{"ring.hedge_frac", "ratio", "lower", ringMoves},
		{"ring.hedge_win_frac", "ratio", "higher", ringMoves},
		{"ring.retries", "count", "lower", ringMoves},
		{"ring.distinct_keys", "count", "higher", ringMoves},
		{"ring.shard_max_share", "ratio", "lower", ringMoves},
		{"ring.shard_hit_ratio", "ratio", "higher", ringMoves},
		{"runtime.gc_cycles_per_kop", "count", "lower", "report_tail_ms on hot-read; heap_mib"},
		{"runtime.gc_pause_ms", "ms", "lower", "report_tail_ms on hot-read; heap_mib"},
		{"gen.late_p99_ms", "ms", "lower", "run validity only"},
		{"trace.overhead_frac", "ratio", "lower", "run validity only"},
	}
	for _, st := range turnup.Stages() {
		moves := "report_p25_ms on ingest-mixed (descriptive stage)"
		if st.Model {
			moves = "report_p25_ms on cold-pipeline (model stage)"
		}
		for _, p := range []string{"p1", "pN"} {
			defs = append(defs, metricDef{"analysis.stage." + st.Name + "_ms." + p, "ms", "lower", moves})
		}
	}
	return defs
}()

// quantile is the nearest-rank q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median of xs (not necessarily sorted).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// msOf returns the latencies in milliseconds, sorted.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}
