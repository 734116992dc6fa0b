// Integration tests for the routing tier: two real serve.Servers behind
// a Router — uploads land on the digest's owning shard, dataset reports
// proxy cross-shard to where the dataset lives, report keys spread across
// shards, connection failures retry onto the ring successor, a stalled
// owner is hedged (the second shard's response wins and is marked
// X-Hedged), and the health checker ejects a dead shard. Race-clean.
package ring_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"turnup"
	"turnup/internal/dataset"
	"turnup/internal/ring"
	"turnup/internal/serve"
)

var (
	resOnce sync.Once
	res     *turnup.Results
	resErr  error
)

// stubResults generates one small result set shared by every stub shard.
func stubResults(t testing.TB) *turnup.Results {
	t.Helper()
	resOnce.Do(func() {
		var d *turnup.Dataset
		if d, resErr = turnup.Generate(turnup.Config{Seed: 7, Scale: 0.01}); resErr != nil {
			return
		}
		res, resErr = turnup.Run(d, turnup.RunOptions{Seed: 7, SkipModels: true})
	})
	if resErr != nil {
		t.Fatal(resErr)
	}
	return res
}

// cluster is the two-shard fixture: real serve.Servers (stub runner)
// behind a Router with test-friendly timings.
type cluster struct {
	router   *ring.Router
	rts      *httptest.Server // the router's listener
	shards   [2]*serve.Server
	shardTS  [2]*httptest.Server
	shardURL [2]string
	stall    atomic.Value // shard URL whose report handling sleeps
}

func newCluster(t *testing.T, opts ring.RouterOptions) *cluster {
	t.Helper()
	c := &cluster{}
	c.stall.Store("")
	results := stubResults(t)
	for i := 0; i < 2; i++ {
		i := i
		h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/v1/report") && c.stall.Load() == c.shardURL[i] {
				time.Sleep(400 * time.Millisecond)
			}
			c.shards[i].ServeHTTP(w, r)
		})
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close) // Close is idempotent; tests may close early
		c.shardTS[i] = ts
		c.shardURL[i] = ts.URL
		c.shards[i] = serve.New(serve.Options{
			Shard: ts.URL,
			Runner: func(ctx context.Context, p serve.Params, _ *serve.Snapshot) (*turnup.Results, error) {
				return results, nil
			},
		})
	}
	opts.Shards = c.shardURL[:]
	router, err := ring.NewRouter(opts)
	if err != nil {
		t.Fatal(err)
	}
	c.router = router
	c.rts = httptest.NewServer(router)
	t.Cleanup(c.rts.Close)
	return c
}

// uploadBody builds a multipart CSV-pair body for d.
func uploadBody(t *testing.T, d *turnup.Dataset) (string, []byte) {
	t.Helper()
	var cb, ub bytes.Buffer
	if err := dataset.WriteContractsCSV(&cb, d.Contracts); err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteUsersCSV(&ub, d.Users); err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	for _, f := range []struct {
		field string
		data  []byte
	}{{"contracts", cb.Bytes()}, {"users", ub.Bytes()}} {
		fw, err := mw.CreateFormFile(f.field, f.field+".csv")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fw.Write(f.data); err != nil {
			t.Fatal(err)
		}
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	return mw.FormDataContentType(), body.Bytes()
}

// storedDatasets reads the number of datasets a shard holds from its own
// /healthz, bypassing the router.
func storedDatasets(t *testing.T, shardURL string) int {
	t.Helper()
	resp, err := http.Get(shardURL + "/healthz?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Datasets int `json:"datasets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h.Datasets
}

func TestRouterUploadAndDatasetReportRouting(t *testing.T) {
	c := newCluster(t, ring.RouterOptions{})
	d, err := turnup.Generate(turnup.Config{Seed: 11, Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	digest, _ := d.Digest()
	owner := c.router.Ring().Owner(serve.DatasetID(digest))

	ct, raw := uploadBody(t, d)
	resp, err := http.Post(c.rts.URL+"/v1/datasets?format=json", ct, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("routed upload status=%d body=%q", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Shard"); got != owner {
		t.Fatalf("upload answered by %s, want ring owner %s", got, owner)
	}
	var up struct {
		Dataset serve.DatasetInfo `json:"dataset"`
	}
	if err := json.Unmarshal(body, &up); err != nil || up.Dataset.ID == "" {
		t.Fatalf("upload body %q: %v", body, err)
	}

	// The dataset lives on the owning shard only (rf=1).
	for _, u := range c.shardURL {
		want := 0
		if u == owner {
			want = 1
		}
		if got := storedDatasets(t, u); got != want {
			t.Fatalf("shard %s stores %d datasets, want %d", u, got, want)
		}
	}

	// A ?dataset= report routes by the same token, so it lands where the
	// upload did — cross-shard proxying is exercised whenever the client's
	// arbitrary choice of router ≠ owner.
	rurl := fmt.Sprintf("%s/v1/report/growth?dataset=%s&models=false", c.rts.URL, up.Dataset.ID)
	resp2, err := http.Get(rurl)
	if err != nil {
		t.Fatal(err)
	}
	rbody, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("routed dataset report status=%d body=%q", resp2.StatusCode, rbody)
	}
	if got := resp2.Header.Get("X-Shard"); got != owner {
		t.Fatalf("dataset report answered by %s, want %s (where the dataset lives)", got, owner)
	}
	if !bytes.Contains(rbody, []byte("Figure 1")) {
		t.Fatalf("routed report body unexpected:\n%s", rbody)
	}

	// The merged listing sees it regardless of which shard holds it, with
	// the holder annotated.
	resp3, err := http.Get(c.rts.URL + "/v1/datasets?format=json")
	if err != nil {
		t.Fatal(err)
	}
	lbody, _ := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	var list struct {
		Datasets []serve.DatasetInfo `json:"datasets"`
	}
	if err := json.Unmarshal(lbody, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Datasets) != 1 || list.Datasets[0].ID != up.Dataset.ID || list.Datasets[0].Shard != owner {
		t.Fatalf("merged listing = %s", lbody)
	}

	// DELETE routes by the same id; the dataset disappears everywhere.
	req, _ := http.NewRequest(http.MethodDelete, c.rts.URL+"/v1/datasets/"+up.Dataset.ID, nil)
	resp4, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusNoContent {
		t.Fatalf("routed delete status=%d", resp4.StatusCode)
	}
	for _, u := range c.shardURL {
		if storedDatasets(t, u) != 0 {
			t.Fatalf("shard %s still stores a dataset after routed delete", u)
		}
	}
}

func TestRouterSpreadsReportKeys(t *testing.T) {
	c := newCluster(t, ring.RouterOptions{})
	seen := map[string]bool{}
	for seed := 1; seed <= 32 && len(seen) < 2; seed++ {
		url := fmt.Sprintf("%s/v1/report/growth?seed=%d&models=false", c.rts.URL, seed)
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d status=%d", seed, resp.StatusCode)
		}
		shard := resp.Header.Get("X-Shard")
		if shard == "" {
			t.Fatal("routed response missing X-Shard")
		}
		// The router must agree with its own ring about who owns the key.
		req, _ := http.NewRequest("GET", url, nil)
		if want := c.router.Ring().Owner(serve.RouteKey(req, 0.05, 12)); shard != want {
			t.Fatalf("seed %d answered by %s, ring owner is %s", seed, shard, want)
		}
		seen[shard] = true
	}
	if len(seen) < 2 {
		t.Fatalf("32 distinct report keys all routed to one shard: %v", seen)
	}
}

func TestRouterRetriesOntoSuccessor(t *testing.T) {
	c := newCluster(t, ring.RouterOptions{RetryBackoff: time.Millisecond})
	// Kill shard 0's listener without telling the ring: forwards to it now
	// fail at the connection level, and the router must retry clockwise.
	deadURL := c.shardURL[0]
	// Find a seed owned by the dead shard.
	var url string
	for seed := 1; seed <= 64; seed++ {
		u := fmt.Sprintf("/v1/report/growth?seed=%d&models=false", seed)
		req, _ := http.NewRequest("GET", u, nil)
		if c.router.Ring().Owner(serve.RouteKey(req, 0.05, 12)) == deadURL {
			url = u
			break
		}
	}
	if url == "" {
		t.Fatal("no seed in 1..64 owned by shard 0; degenerate fixture")
	}
	c.shardTS[0].Close()

	resp, err := http.Get(c.rts.URL + url)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retried request status=%d body=%q", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Shard"); got != c.shardURL[1] {
		t.Fatalf("retried request answered by %q, want the surviving shard %s", got, c.shardURL[1])
	}
}

func TestRouterHedgesStalledOwner(t *testing.T) {
	c := newCluster(t, ring.RouterOptions{
		HedgeDelay:   10 * time.Millisecond,
		HotThreshold: 1, // every key is hot: hedging is the subject here
		RetryBackoff: time.Millisecond,
	})
	// Pick a report key owned by shard 0, then stall shard 0's report path.
	var url string
	for seed := 1; seed <= 64; seed++ {
		u := fmt.Sprintf("/v1/report/growth?seed=%d&models=false", seed)
		req, _ := http.NewRequest("GET", u, nil)
		if c.router.Ring().Owner(serve.RouteKey(req, 0.05, 12)) == c.shardURL[0] {
			url = u
			break
		}
	}
	if url == "" {
		t.Fatal("no seed owned by shard 0")
	}
	other := c.shardURL[1]
	c.stall.Store(c.shardURL[0])

	start := time.Now()
	resp, err := http.Get(c.rts.URL + url)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hedged request status=%d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Shard"); got != other {
		t.Fatalf("hedged request answered by %s, want the unstalled shard %s", got, other)
	}
	if resp.Header.Get("X-Hedged") != "true" {
		t.Fatal("winning hedged response is not marked X-Hedged")
	}
	// The win must beat the 400ms stall — that is the point of hedging.
	if elapsed >= 400*time.Millisecond {
		t.Fatalf("hedged request took %s; the stall was not raced", elapsed)
	}
}

func TestHealthCheckerEjectsDeadShard(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	live := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer live.Close()
	r, err := ring.New([]string{dead.URL, live.URL}, 64)
	if err != nil {
		t.Fatal(err)
	}
	dead.Close() // probes now fail at the connection level

	hc := ring.NewHealthChecker(r, ring.HealthOptions{
		Interval:  10 * time.Millisecond,
		Timeout:   200 * time.Millisecond,
		FailAfter: 2,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go hc.Run(ctx)

	deadline := time.Now().Add(5 * time.Second)
	for r.Healthy(dead.URL) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if r.Healthy(dead.URL) {
		t.Fatal("dead shard was not ejected")
	}
	if !r.Healthy(live.URL) {
		t.Fatal("live shard was ejected alongside the dead one")
	}
	if owner := r.Owner("any-key"); owner != live.URL {
		t.Fatalf("post-ejection owner = %q, want the live shard", owner)
	}
}
