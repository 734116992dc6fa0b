// Command perfbench is the serving tier's benchmark. It boots the real
// hfserved binary as a separate process, drives one of three workloads
// against it from this process, checks every response, and prints the
// end-to-end metrics by name and unit. With -trace 1 it also replays the
// workload's request sequence in-process, calling each layer's public
// functions (the router's too) under spans, and prints the per-layer
// metrics.
//
// Run it through run.sh, which builds the binaries first:
//
//	bash perfbench/run.sh --workload cold-pipeline --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is the result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// workload is one traffic mix. why is recorded beside it in
// BENCHMARK.json.
type workload struct {
	name string
	why  string
	run  func(b *bench, ctx context.Context) (*outcome, error)
}

// workloads are the benchmark's workloads, in BENCHMARK.json order.
var workloads = []workload{
	{"cold-pipeline", "two clients in a closed loop alternate k=6 models-on full reports of their own fixed corpora on a server that keeps no result: simulate, group build, stage DAG, sizing and render work", (*bench).coldPipeline},
	{"hot-read", "hfload's default rate and key shares over a pre-warmed keyspace, alternating with back-to-back bursts for capacity: only the HTTP hit path, render cache, gzip and envelope run", (*bench).hotRead},
	{"ingest-mixed", "appends and dataset reads at hfload's default rates, alternating with append bursts, each segment from the same corpus: cache invalidation, Index.Append and descriptive re-runs under writes", (*bench).ingestMixed},
}

// bench holds one invocation's settings.
type bench struct {
	bin     string        // directory holding hfserved
	seed    int64         // workload seed: every input derives from it
	window  time.Duration // measurement length
	conns   int           // load connections: nproc
	version string
	client  *http.Client // load generator's client (conns connections)
	admin   *http.Client // scrapes and uploads, outside measurement
	spans   string       // where the traced run writes its spans ("" = nowhere)
}

// A run boots and warms its servers at least setupRepeats times and until
// setupSpan has passed, timing each; setup_s is the median, and the last
// fleet is the one measured. Spread over a few seconds, the set-ups meet
// different moments of the host's load, so one burst of it does not set
// the median.
const (
	setupRepeats = 3
	setupSpan    = 3 * time.Second
)

// lateBoundMs bounds the generator's own p99 lateness; past it the
// schedule was not kept and the run is invalid.
const lateBoundMs = 25.0

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: cold-pipeline, hot-read or ingest-mixed")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 15, "measurement length in seconds")
	trace := fs.Int("trace", 0, "1 = also run the traced in-process replay and print per-layer metrics")
	bin := fs.String("bin", "", "directory holding the hfserved binary")
	version := fs.String("version", "unknown", "version of the code under test")
	spans := fs.String("spans", "", "file the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *bin == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need -workload (cold-pipeline|hot-read|ingest-mixed), -bin, -seconds > 0, -trace 0|1")
		return 2
	}
	if _, err := os.Stat(*bin + "/hfserved"); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	// Every run ends well inside three minutes, even when a server hangs.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The generator's own garbage collections would add to the latencies
	// it records; a larger heap target makes them rare.
	debug.SetGCPercent(400)
	nproc := runtime.NumCPU()
	b := &bench{
		bin:     *bin,
		seed:    *seed,
		window:  time.Duration(*seconds * float64(time.Second)),
		conns:   nproc,
		version: *version,
		client:  newClient(nproc),
		admin:   newClient(1),
		spans:   *spans,
	}
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%g trace=%d\n", w.name, *seed, *seconds, *trace)
	o, err := w.run(b, ctx)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	res := o.result()
	prov := provenance{
		Version: b.version, GoVersion: runtime.Version(), NProc: nproc,
		BenchGOMAXPROCS: runtime.GOMAXPROCS(0), Seed: b.seed, Workload: w.name,
		Seconds: *seconds, Processes: o.procs,
	}
	o.print(stdout, w.name)
	if *trace == 1 {
		layers, table, err := b.traced(ctx, w.name, o)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: traced run: %v\n", err)
			return 1
		}
		printTraced(stdout, layers, table)
		res.Metrics = make(map[string]metricValue, len(perLayer))
		for _, d := range perLayer {
			v, ok := layers[d.name]
			if !ok {
				fmt.Fprintf(stderr, "perfbench: traced run produced no %s\n", d.name)
				return 1
			}
			res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		}
	}
	o.detail["tail_percentile"] = o.tail * 100
	detail, _ := json.Marshal(struct {
		Provenance provenance     `json:"provenance"`
		Detail     map[string]any `json:"detail"`
		Failures   []string       `json:"failures,omitempty"`
	}{prov, o.detail, o.failureList()})
	fmt.Fprintf(stdout, "detail %s\n", detail)
	line, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finalLine is the result line the benchmark contract fixes.
type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type provenance struct {
	Version         string     `json:"version"`
	GoVersion       string     `json:"go_version"`
	NProc           int        `json:"nproc"`
	BenchGOMAXPROCS int        `json:"bench_gomaxprocs"`
	Seed            int64      `json:"seed"`
	Workload        string     `json:"workload"`
	Seconds         float64    `json:"seconds"`
	Processes       []procInfo `json:"processes"`
}

// outcome is one workload's untraced run.
type outcome struct {
	tail    float64   // the workload's fixed tail percentile
	setups  []float64 // seconds per setup
	samples []*sample // every measured op
	// reports are the samples report latency is computed over (default:
	// every report op).
	reports []*sample
	// reportMs, throughput and cpuPerOp are the workload's report_p25_ms,
	// throughput_per_s and cpu_ms_per_op, each taken from the best stretch
	// of its phase (see stretch.go).
	reportMs   float64
	throughput float64
	cpuPerOp   float64
	cpuTrace   []cpuPoint // server CPU seconds sampled through measurement
	reportHow  string     // how reportMs was taken, for the printed report
	before     []map[string]float64
	after      []map[string]float64
	procs      []procInfo
	// checks counts end-of-run checks that are not a single response
	// (e.g. the final generation against a from-scratch run).
	checks   int
	failures []string // failed end-of-run checks
	only     map[string]float64
	detail   map[string]any
	// replay carries what the traced run needs to replay this workload.
	replay any
}

func newOutcome(tail float64) *outcome {
	return &outcome{tail: tail, only: map[string]float64{}, detail: map[string]any{}}
}

func (o *outcome) reportSamples() []*sample {
	if o.reports != nil {
		return o.reports
	}
	var out []*sample
	for _, s := range o.samples {
		if s.op.kind == "report" {
			out = append(out, s)
		}
	}
	return out
}

// latencies returns the ok samples' latencies from due, in ms, sorted.
func latencies(ss []*sample) []float64 {
	var ds []time.Duration
	for _, s := range ss {
		if s.err == "" {
			ds = append(ds, s.latency())
		}
	}
	return msOf(ds)
}

func (o *outcome) failed() int {
	n := len(o.failures)
	for _, s := range o.samples {
		if s.err != "" {
			n++
		}
	}
	return n
}

func (o *outcome) failureList() []string {
	seen := map[string]int{}
	var order []string
	for _, s := range o.samples {
		if s.err != "" {
			k := s.op.method + " " + pathOnly(s.op.path) + ": " + s.err
			if seen[k] == 0 {
				order = append(order, k)
			}
			seen[k]++
		}
	}
	var out []string
	for _, k := range order {
		out = append(out, fmt.Sprintf("%dx %s", seen[k], k))
	}
	return append(out, o.failures...)
}

func pathOnly(p string) string {
	if i := strings.IndexByte(p, '?'); i >= 0 {
		return p[:i]
	}
	return p
}

// lateP99 is the generator's own p99 lateness in ms.
func (o *outcome) lateP99() float64 {
	var ds []time.Duration
	for _, s := range o.samples {
		ds = append(ds, s.late())
	}
	return quantile(msOf(ds), 0.99)
}

// e2e computes the shared end-to-end metrics.
func (o *outcome) e2e() map[string]float64 {
	return map[string]float64{
		"setup_s":          median(o.setups),
		"report_p25_ms":    o.reportMs,
		"throughput_per_s": o.throughput,
		"heap_mib":         sum(o.after, "runtime_heap_alloc_bytes") / (1 << 20),
		"cpu_ms_per_op":    o.cpuPerOp,
	}
}

// result is the final line of an untraced run: the shared end-to-end
// metrics, and every op and end-of-run check counted.
func (o *outcome) result() *finalLine {
	attempted := len(o.samples) + o.checks
	failed := o.failed()
	e := o.e2e()
	r := &finalLine{
		Correct:   failed == 0 && o.lateP99() <= lateBoundMs,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range endToEnd {
		r.Metrics[d.name] = metricValue{Value: e[d.name], Unit: d.unit}
	}
	o.only["failed_frac"] = 0
	if attempted > 0 {
		o.only["failed_frac"] = float64(failed) / float64(attempted)
	}
	return r
}

// print writes the human-readable report: every end-to-end metric by
// name and unit, gated or not, and any failures.
func (o *outcome) print(w io.Writer, name string) {
	e := o.e2e()
	lat := latencies(o.reportSamples())
	for _, d := range endToEnd {
		note := ""
		switch d.name {
		case "setup_s":
			note = fmt.Sprintf("median of %d set-ups", len(o.setups))
		case "report_p25_ms":
			note = o.reportHow
		case "throughput_per_s", "cpu_ms_per_op":
			note = "quartile of stretches"
		}
		fmt.Fprintf(w, "e2e %-16s %12.4f %-5s %s\n", d.name, e[d.name], d.unit, note)
	}
	o.only["report_p50_ms"] = quantile(lat, 0.5)
	o.only["report_tail_ms"] = quantile(lat, o.tail)
	for _, d := range printedOnly {
		v, ok := o.only[d.name]
		if !ok {
			continue
		}
		note := name + " only, not gated"
		if d.name == "report_p50_ms" {
			note = fmt.Sprintf("median of %d samples; not gated", len(lat))
		} else if d.name == "report_tail_ms" {
			beyond := int(math.Floor(float64(len(lat)) * (1 - o.tail)))
			note = fmt.Sprintf("p%g of %d samples, %d beyond; not gated", o.tail*100, len(lat), beyond)
		} else if d.name == "failed_frac" {
			note = "not gated: the result line counts attempted and failed"
		}
		fmt.Fprintf(w, "e2e %-16s %12.4f %-5s %s\n", d.name, v, d.unit, note)
	}
	fmt.Fprintf(w, "gen late_p99 %.3f ms (bound %g ms)\n", o.lateP99(), lateBoundMs)
	for _, f := range o.failureList() {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
}
