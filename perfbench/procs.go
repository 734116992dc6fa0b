package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one server process the benchmark booted (hfserved),
// bound to an ephemeral loopback port it reports on stderr.
type proc struct {
	name string
	args []string
	url  string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has exited and been reaped

	mu     sync.Mutex
	stderr []string // last lines of stderr, for failure reports
}

// startProc launches bin with args plus "-addr 127.0.0.1:0" and waits for
// its "listening on" line, which names the port it bound.
func startProc(bin, name string, args ...string) (*proc, error) {
	args = append([]string{"-addr", "127.0.0.1:0", "-log-format", "none"}, args...)
	p := &proc{name: name, args: args, done: make(chan struct{})}
	p.cmd = exec.Command(bin, args...)
	p.cmd.Dir = filepath.Dir(bin)
	// A server must not outlive the benchmark, even one killed outright.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			p.mu.Lock()
			if len(p.stderr) < 50 {
				p.stderr = append(p.stderr, line)
			}
			p.mu.Unlock()
			if _, rest, ok := strings.Cut(line, " listening on "); ok {
				a, _, _ := strings.Cut(rest, ",")
				select {
				case addr <- strings.TrimSpace(a):
				default:
				}
			}
		}
		_ = p.cmd.Wait()
		close(p.done)
	}()
	select {
	case a := <-addr:
		p.url = "http://" + a
	case <-p.done:
		return nil, fmt.Errorf("%s exited before listening: %s", name, p.lastErr())
	case <-time.After(20 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s did not report its address within 20s", name)
	}
	return p, nil
}

func (p *proc) lastErr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.stderr, " | ")
}

// waitReady polls /healthz until it answers 200.
func (p *proc) waitReady(c *http.Client) error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := c.Get(p.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s exited: %s", p.name, p.lastErr())
		case <-time.After(5 * time.Millisecond):
		}
	}
	return fmt.Errorf("%s not ready within 20s", p.name)
}

// stop sends SIGTERM, waits for a graceful exit, then kills; it returns
// only once the process has been reaped.
func (p *proc) stop() {
	if p == nil || p.cmd.Process == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
		return
	case <-time.After(10 * time.Second):
	}
	_ = p.cmd.Process.Kill()
	<-p.done
}

// cpuSeconds reads the process's user+system CPU time from /proc.
func (p *proc) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3, so
	// utime (14) and stime (15) are at offsets 11 and 12.
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad /proc stat times")
	}
	return (ut + st) / clockTicks, nil
}

// hostSteal reads the whole machine's CPU ticks from /proc/stat: the
// ticks stolen by the hypervisor and the total.
func hostSteal() (steal, total float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	for i, v := range f[1:] {
		n, _ := strconv.ParseFloat(v, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// clockTicks is USER_HZ, which Linux fixes at 100 for /proc accounting.
const clockTicks = 100

// metrics scrapes /metrics?format=json&gc=1 — a forced GC first, so the
// heap gauge is live bytes — into name → value (histograms: their count
// under name+"_count").
func (p *proc) metrics(ctx context.Context, c *http.Client) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", p.url+"/metrics?format=json&gc=1", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping %s metrics: %w", p.name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s metrics: status %d", p.name, resp.StatusCode)
	}
	var snap []struct {
		Name  string  `json:"name"`
		Kind  string  `json:"kind"`
		Value float64 `json:"value"`
		Count float64 `json:"count"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decoding %s metrics: %w", p.name, err)
	}
	out := make(map[string]float64, len(snap))
	for _, m := range snap {
		out[m.Name] = m.Value
		if m.Kind == "histogram" {
			out[m.Name+"_count"] = m.Count
		}
	}
	return out, nil
}

// procInfo is the provenance of one booted process.
type procInfo struct {
	Name       string   `json:"name"`
	Args       []string `json:"args"`
	GOMAXPROCS int      `json:"gomaxprocs"`
}

// fleet is the set of processes one workload runs against, with the
// readings the end-to-end metrics are built from.
type fleet struct {
	procs []*proc
}

func (f *fleet) stop() {
	var wg sync.WaitGroup
	for _, p := range f.procs {
		wg.Add(1)
		go func(p *proc) {
			defer wg.Done()
			p.stop()
		}(p)
	}
	wg.Wait()
	f.procs = nil
}

// cpu sums user+system CPU seconds over every process.
func (f *fleet) cpu() (float64, error) {
	var sum float64
	for _, p := range f.procs {
		s, err := p.cpuSeconds()
		if err != nil {
			return 0, err
		}
		sum += s
	}
	return sum, nil
}

// scrape returns each process's metrics, in fleet order.
func (f *fleet) scrape(ctx context.Context, c *http.Client) ([]map[string]float64, error) {
	out := make([]map[string]float64, len(f.procs))
	for i, p := range f.procs {
		m, err := p.metrics(ctx, c)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

func (f *fleet) info(scr []map[string]float64) []procInfo {
	out := make([]procInfo, len(f.procs))
	for i, p := range f.procs {
		out[i] = procInfo{Name: p.name, Args: p.args}
		if i < len(scr) {
			out[i].GOMAXPROCS = int(scr[i]["runtime_gomaxprocs"])
		}
	}
	return out
}

// sum adds one metric across processes.
func sum(scr []map[string]float64, name string) float64 {
	var s float64
	for _, m := range scr {
		s += m[name]
	}
	return s
}
