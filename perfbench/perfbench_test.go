package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestBenchmarkJSON keeps BENCHMARK.json in step with the metrics and
// workloads this program emits.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name   string `json:"name"`
			Unit   string `json:"unit"`
			Better string `json:"better"`
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q/%q, want %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d here", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %d: %+v, want %s %s %s", i, m, d.name, d.unit, d.better)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d here", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: %+v, want %s %s %s", i, m, d.name, d.unit, d.better)
		}
	}
}

// buildServer compiles hfserved into a temporary directory.
func buildServer(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", filepath.Join(dir, "hfserved"), "turnup/cmd/hfserved")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building hfserved: %v\n%s", err, out)
	}
	return dir
}

// TestShortRunEmitsEveryMetric runs each workload briefly with tracing on
// and checks the report names every end-to-end metric (the report median
// and tail too) with its unit and the result line carries every per-layer metric
// with its unit.
func TestShortRunEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("boots servers and runs the pipeline")
	}
	bin := buildServer(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run([]string{"-workload", w.name, "-seed", "7", "-seconds", "1", "-trace", "1", "-bin", bin}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			for _, d := range slices.Concat(endToEnd, printedOnly[:2]) {
				if !hasE2E(lines, d.name, d.unit) {
					t.Errorf("no e2e line for %s in %s", d.name, d.unit)
				}
			}
			var res finalLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if res.Attempted < 1 {
				t.Errorf("result %+v\n%s", res, stdout.String())
			}
			// Correctness is the benchmark's own verdict, not this test's:
			// a failed check is reported, not a missing metric.
			if res.Failed > 0 {
				t.Logf("%d failed ops: %s", res.Failed, stdout.String())
			}
			for _, d := range perLayer {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("per-layer %s: %+v, want unit %s", d.name, m, d.unit)
				}
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("%d metrics, want %d", len(res.Metrics), len(perLayer))
			}
		})
	}
}

// hasE2E reports whether the report has an "e2e <name> <value> <unit>" line.
func hasE2E(lines []string, name, unit string) bool {
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) >= 4 && f[0] == "e2e" && f[1] == name && f[3] == unit {
			return true
		}
	}
	return false
}

// TestCorruptedExpectedBodyCountsFailed serves the true report and checks
// half the responses against an expected body with one byte changed:
// exactly those must count as failed.
func TestCorruptedExpectedBodyCountsFailed(t *testing.T) {
	body := []byte(strings.Repeat("growth of the market by era\n", 40))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("ETag", `"e"`)
		w.Write(body)
	}))
	defer srv.Close()
	bad := append([]byte(nil), body...)
	bad[10] ^= 1
	good := &reportCheck{want: body, etag: `"e"`}
	corrupt := &reportCheck{want: bad, etag: `"e"`}
	var ops []*op
	var due []time.Duration
	for i := 0; i < 20; i++ {
		c := good
		if i%2 == 1 {
			c = corrupt
		}
		ops = append(ops, &op{kind: "report", method: "GET", path: "/v1/report", check: func(r *response) error { return c.check(r, "") }})
		due = append(due, time.Duration(i)*time.Millisecond)
	}
	o := newOutcome(0.99)
	o.samples = openLoop(context.Background(), newClient(2), srv.URL, time.Now(), ops, due, nil, 2)
	if got := o.failed(); got != 10 {
		t.Fatalf("failed = %d, want the 10 checked against the corrupted body", got)
	}
	if r := o.result(); r.Correct || r.Failed != 10 || r.Attempted != 20 {
		t.Fatalf("result %+v", r)
	}
}

// TestStallShowsInDueTimeLatency stalls one response on a single
// connection: the requests due behind it must carry the wait in their
// latency from due, though the server answers them at once, and none may
// be dropped.
func TestStallShowsInDueTimeLatency(t *testing.T) {
	var n atomic.Int64
	const stall = 300 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 5 {
			time.Sleep(stall)
		}
		w.Write([]byte("ok"))
	}))
	defer srv.Close()
	const total = 40
	var ops []*op
	var due []time.Duration
	for i := 0; i < total; i++ {
		ops = append(ops, &op{kind: "report", method: "GET", path: "/"})
		due = append(due, time.Duration(i)*10*time.Millisecond)
	}
	ss := openLoop(context.Background(), newClient(1), srv.URL, time.Now(), ops, due, nil, 1)
	if len(ss) != total {
		t.Fatalf("%d samples, want all %d due requests", len(ss), total)
	}
	// The request due 100 ms after the stalled one waited ~200 ms for the
	// connection, though its own service time is tiny.
	s := ss[14]
	if s.latency() < stall/2 {
		t.Errorf("latency from due %v, want the stall's wait (> %v)", s.latency(), stall/2)
	}
	if s.service() > stall/4 {
		t.Errorf("service time %v, want it far below the stall", s.service())
	}
	if late := s.late(); late > 20*time.Millisecond {
		t.Errorf("generator lateness %v: the wait is the system's, not the generator's", late)
	}
}

// TestQuartiles checks that a burst of outside load confined to one part
// of a phase moves neither the quartile latency nor the quartile rate,
// while a slowdown of every op moves both.
func TestQuartiles(t *testing.T) {
	phase := func(slow time.Duration, burst bool) ([]*sample, []stretch) {
		var parts [][]*sample
		at := time.Duration(0)
		for p := 0; p < 8; p++ {
			var part []*sample
			for i := 0; i < 10; i++ {
				lat, gap := time.Millisecond*slow, 10*time.Millisecond*slow
				if burst && p == 2 {
					lat, gap = 5*lat, 3*gap
				}
				part = append(part, &sample{op: &op{}, due: at, free: at, sent: at, done: at + lat})
				at += gap
			}
			parts = append(parts, part)
		}
		return slices.Concat(parts...), stretchesOf(parts, len(parts))
	}
	baseSS, base := phase(1, false)
	burstSS, burst := phase(1, true)
	slowSS, slow := phase(2, false)
	if p, q := quartileLatency(baseSS), quartileLatency(burstSS); p != q || p != 1 {
		t.Errorf("p25 latency %v without the burst, %v with it; want 1 ms both", p, q)
	}
	if r, q := quartileRate(base), quartileRate(burst); r != q {
		t.Errorf("quartile rate %v without the burst, %v with it", r, q)
	}
	if p := quartileLatency(slowSS); p != 2 {
		t.Errorf("p25 latency %v with every op twice as slow, want 2 ms", p)
	}
	if r, q := quartileRate(base), quartileRate(slow); q >= r*0.6 {
		t.Errorf("quartile rate %v with every op twice as slow, %v without", q, r)
	}
}
