package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// op is one HTTP request of a workload's sequence. Ops are built from the
// workload seed before anything is sent, so the traced run can replay the
// same sequence in-process.
type op struct {
	kind   string // metric class: "report", "write", or "read" (other GETs)
	method string
	path   string // path and query
	header http.Header
	body   []byte
	// next, when set, is sent by the same connection as soon as this op
	// completes (an append's follow-up reads); its due time is this op's
	// completion.
	next *op
	// check validates the response; a non-nil error counts the op failed.
	check func(r *response) error
	// keep retains the response after its check, for checks that compare
	// responses with each other once the run is over.
	keep bool
}

// response is what a check sees: status, the headers checks read, and the
// body bytes exactly as received (no transparent decompression).
type response struct {
	status int
	header http.Header
	body   []byte
}

// sample is one completed op. Times are offsets from the run's start.
type sample struct {
	op   *op
	due  time.Duration // when the op was due to be sent
	free time.Duration // when its connection became free to send it
	sent time.Duration
	done time.Duration
	err  string // transport error or failed check ("" = ok)
	resp *response
	next *sample // the op's follow-up, when it has one
}

// latency is the op's latency from its due time — the measure that counts
// the wait a stall imposes on the requests queued behind it — less the
// generator's own lateness (timer slack when it wakes to send), which is
// the generator's error, not the system's, and is reported on its own.
func (s *sample) latency() time.Duration { return s.done - s.due - s.late() }

// service is the latency from send, the closed-loop measure.
func (s *sample) service() time.Duration { return s.done - s.sent }

// late is how far behind schedule the generator itself sent the op: the
// delay past the moment both the due time had come and a connection was
// free. Lateness beyond that is the system's queueing, not the generator's.
func (s *sample) late() time.Duration {
	at := s.due
	if s.free > at {
		at = s.free
	}
	if s.sent < at {
		return 0
	}
	return s.sent - at
}

// client is an HTTP client with at most conns connections per host and
// no transparent decompression, so checks see the bytes the server sent.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// do sends one op and reads the whole response.
func do(ctx context.Context, c *http.Client, base string, o *op) (*response, error) {
	var body io.Reader
	if o.body != nil {
		body = bytes.NewReader(o.body)
	}
	req, err := http.NewRequestWithContext(ctx, o.method, base+o.path, body)
	if err != nil {
		return nil, err
	}
	for k, v := range o.header {
		req.Header[k] = v
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &response{status: resp.StatusCode, header: resp.Header, body: b}, nil
}

// checker runs response checks off the send path, so a check's cost never
// delays a connection's next request.
type checker struct {
	in chan *sample
	wg sync.WaitGroup
}

func newChecker() *checker {
	// The buffer absorbs bursts while the checker catches up; sends block
	// beyond it rather than dropping a check.
	k := &checker{in: make(chan *sample, 4096)}
	k.wg.Add(1)
	go func() {
		defer k.wg.Done()
		for s := range k.in {
			if s.err == "" && s.op.check != nil {
				if err := s.op.check(s.resp); err != nil {
					s.err = err.Error()
				}
			}
			if !s.op.keep {
				s.resp = nil
			}
		}
	}()
	return k
}

func (k *checker) close() { close(k.in); k.wg.Wait() }

// openLoop sends ops[i] at start+due[i] over conns connections. With lane
// nil any free connection sends the next op due; otherwise lane[i] names
// the connection that sends ops[i], in order. Due requests are never
// dropped: a connection that falls behind sends immediately, and the wait
// shows in later requests' latency from due. It returns every sample,
// follow-ups after their op, once all responses have been checked.
func openLoop(ctx context.Context, c *http.Client, base string, start time.Time, ops []*op, due []time.Duration, lane []int, conns int) []*sample {
	out := make([]*sample, len(ops))
	chk := newChecker()
	queues := make([][]int, conns)
	for i := range lane {
		queues[lane[i]%conns] = append(queues[lane[i]%conns], i)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(own []int) {
			defer wg.Done()
			free := time.Since(start)
			for {
				var i int
				if lane != nil {
					if len(own) == 0 {
						return
					}
					i, own = own[0], own[1:]
				} else if i = int(next.Add(1)) - 1; i >= len(ops) {
					return
				}
				if d := time.Until(start.Add(due[i])); d > 0 {
					select {
					case <-time.After(d):
					case <-ctx.Done():
						return
					}
				}
				out[i] = send(ctx, c, base, start, ops[i], due[i], free, chk)
				free = out[i].done
				for s := out[i]; s.op.next != nil; {
					ns := send(ctx, c, base, start, s.op.next, s.done, s.done, chk)
					s.next = ns
					s = ns
					free = s.done
				}
			}
		}(queues[w])
	}
	wg.Wait()
	chk.close()
	return flatten(out)
}

// flatten lists samples with each one's follow-ups after it.
func flatten(ss []*sample) []*sample {
	var out []*sample
	for _, s := range ss {
		for ; s != nil; s = s.next {
			out = append(out, s)
		}
	}
	return out
}

// closedLoop runs one client per list in ops, each sending its list's
// next op as soon as the previous one completes, until the window closes
// or its list runs out; ops in flight at the close still complete and
// count.
func closedLoop(ctx context.Context, c *http.Client, base string, start time.Time, window time.Duration, ops [][]*op) []*sample {
	var mu sync.Mutex
	var out []*sample
	chk := newChecker()
	var wg sync.WaitGroup
	for _, own := range ops {
		wg.Add(1)
		go func(own []*op) {
			defer wg.Done()
			for _, o := range own {
				if time.Since(start) >= window || ctx.Err() != nil {
					return
				}
				now := time.Since(start)
				s := send(ctx, c, base, start, o, now, now, chk)
				mu.Lock()
				out = append(out, s)
				mu.Unlock()
			}
		}(own)
	}
	wg.Wait()
	chk.close()
	return out
}

// segment is one part of an alternating schedule: reset, when set, runs
// first; then ops are sent open loop at due times counted from the
// segment's start (see openLoop); then a burst of ops is sent back to
// back, one list per connection, until the lists run out or burstFor
// passes.
type segment struct {
	reset    func() error
	ops      []*op
	due      []time.Duration
	lane     []int
	burst    [][]*op
	burstFor time.Duration // 0: until the lists run out
}

// alternate runs the segments in order and returns each one's open-loop
// samples and burst samples. Bursts that run until their lists run out
// stop sending at limit, counted from start.
func alternate(ctx context.Context, c *http.Client, base string, start time.Time, segs []segment, conns int, limit time.Duration) (open, burst [][]*sample, err error) {
	for _, sg := range segs {
		if ctx.Err() != nil {
			return open, burst, ctx.Err()
		}
		if sg.reset != nil {
			if err := sg.reset(); err != nil {
				return open, burst, err
			}
		}
		at := time.Since(start)
		due := make([]time.Duration, len(sg.due))
		for i, d := range sg.due {
			due[i] = at + d
		}
		open = append(open, openLoop(ctx, c, base, start, sg.ops, due, sg.lane, conns))
		until := limit
		if sg.burstFor > 0 {
			until = time.Since(start) + sg.burstFor
		}
		burst = append(burst, closedLoop(ctx, c, base, start, until, sg.burst))
	}
	return open, burst, nil
}

// rounds sends each round's ops at once, one per client, and waits for
// every reply before the next round, until the window closes or the rounds
// run out: a closed loop whose clients keep in step, so every round
// overlaps the same requests the same way. It returns each round's
// samples, in client order.
func rounds(ctx context.Context, c *http.Client, base string, start time.Time, window time.Duration, ops [][]*op) [][]*sample {
	chk := newChecker()
	var out [][]*sample
	for _, round := range ops {
		if time.Since(start) >= window || ctx.Err() != nil {
			break
		}
		ss := make([]*sample, len(round))
		now := time.Since(start)
		var wg sync.WaitGroup
		for i, o := range round {
			wg.Add(1)
			go func(i int, o *op) {
				defer wg.Done()
				ss[i] = send(ctx, c, base, start, o, now, now, chk)
			}(i, o)
		}
		wg.Wait()
		out = append(out, ss)
	}
	chk.close()
	return out
}

func send(ctx context.Context, c *http.Client, base string, start time.Time, o *op, due, free time.Duration, chk *checker) *sample {
	s := &sample{op: o, due: due, free: free, sent: time.Since(start)}
	resp, err := do(ctx, c, base, o)
	s.done = time.Since(start)
	if err != nil {
		s.err = err.Error()
	}
	s.resp = resp
	chk.in <- s
	return s
}
