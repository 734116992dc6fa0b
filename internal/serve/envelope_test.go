// Tests for the spliced report responses: a JSON body is an envelope head
// encoded per request followed by the entry's pre-encoded report, and a
// gzip body is that head spliced as stored blocks into the entry's gzip
// member. Both must be exactly what json.Encoder and a single gzip member
// of the identity body would be.
package serve

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"turnup"
	"turnup/internal/version"
)

var (
	envOnce sync.Once
	envData *turnup.Dataset
	envRes  *turnup.Results
	envErr  error
)

// envFixture is a small corpus and its models-off results, built once.
func envFixture(t testing.TB) (*turnup.Dataset, *turnup.Results) {
	t.Helper()
	envOnce.Do(func() {
		if envData, envErr = turnup.Generate(turnup.Config{Seed: 7, Scale: 0.02}); envErr != nil {
			return
		}
		envRes, envErr = turnup.Run(envData, turnup.RunOptions{Seed: 7, SkipModels: true})
	})
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envData, envRes
}

// envServer is a server over the fixture's results with the given shard
// name; with dataset set, it also stores the fixture's corpus and returns
// its id.
func envServer(t testing.TB, shard string, dataset bool) (*Server, string) {
	t.Helper()
	d, res := envFixture(t)
	s := New(Options{Shard: shard, Runner: func(context.Context, Params, *Snapshot) (*turnup.Results, error) {
		return res, nil
	}})
	if !dataset {
		return s, ""
	}
	info, _, err := s.datasets.Add(d)
	if err != nil {
		t.Fatal(err)
	}
	return s, info.ID
}

// serveRecorded runs one request through s in process.
func serveRecorded(s *Server, path string, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// gunzipOne decodes wire as exactly one gzip member with nothing after
// it.
func gunzipOne(t testing.TB, wire []byte) []byte {
	t.Helper()
	br := bytes.NewReader(wire)
	zr, err := gzip.NewReader(br)
	if err != nil {
		t.Fatalf("gzip header: %v", err)
	}
	zr.Multistream(false)
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("gzip member: %v", err)
	}
	if br.Len() != 0 {
		t.Fatalf("%d bytes after the gzip member", br.Len())
	}
	return out
}

// TestReportEnvelopeMatchesEncoder pins the spliced responses against the
// encoder they replace, over hit and miss, identity and gzip, full report
// and section list, generated and dataset-backed corpora, and a sharded
// server: the identity JSON body is json.Encoder's output for the same
// envelope, the gzip body is one member that decodes to it, and the ETag
// is the digest of render key and raw report.
func TestReportEnvelopeMatchesEncoder(t *testing.T) {
	_, res := envFixture(t)
	for _, srv := range []struct {
		name    string
		shard   string
		dataset bool
	}{{"generated", "", false}, {"dataset", "", true}, {"shard", "http://shard-a:8080", false}} {
		for _, sections := range [][]string{nil, {"growth", "corpus"}} {
			for _, hit := range []bool{false, true} {
				for _, gz := range []bool{false, true} {
					name := srv.name + "/sections=" + strings.Join(sections, ",") +
						"/hit=" + strconv.FormatBool(hit) + "/gzip=" + strconv.FormatBool(gz)
					t.Run(name, func(t *testing.T) {
						s, id := envServer(t, srv.shard, srv.dataset)
						path := "/v1/report"
						if len(sections) > 0 {
							path += "/" + strings.Join(sections, ",")
						}
						path += "?seed=7&models=false&format=json"
						if id != "" {
							path += "&dataset=" + id
						} else {
							path += "&scale=0.02"
						}
						if hit {
							serveRecorded(s, path, nil)
						}
						reqID := fmt.Sprintf("req-%s-%d-%t-%t", srv.name, len(sections), hit, gz)
						hdr := map[string]string{"X-Request-Id": reqID}
						if gz {
							hdr["Accept-Encoding"] = "gzip"
						}
						rec := serveRecorded(s, path, hdr)
						if rec.Code != http.StatusOK {
							t.Fatalf("code %d: %s", rec.Code, rec.Body)
						}
						body := rec.Body.Bytes()
						if enc := rec.Header().Get("Content-Encoding"); (enc == "gzip") != gz {
							t.Fatalf("Content-Encoding %q for a gzip=%t client", enc, gz)
						}
						if gz {
							body = gunzipOne(t, body)
						}
						if n := rec.Header().Get("Content-Length"); n != strconv.Itoa(rec.Body.Len()) {
							t.Fatalf("Content-Length %s, body %d bytes", n, rec.Body.Len())
						}

						var got reportResponse
						if err := json.Unmarshal(body, &got); err != nil {
							t.Fatalf("bad envelope: %v", err)
						}
						report, _ := turnup.RenderString(res, sections...)
						want := reportResponse{
							Meta:     Meta{RequestID: reqID, Version: version.String(), Shard: srv.shard},
							Params:   got.Params,
							Sections: sections,
							Cache:    StatusMiss,
							Report:   report,
						}
						if hit {
							want.Cache = StatusHit
						}
						if id != "" {
							want.Ledger = "present"
							if got.Params.Dataset != id || rec.Header().Get("X-Dataset-Generation") != "1" {
								t.Fatalf("dataset %q, generation header %q", got.Params.Dataset, rec.Header().Get("X-Dataset-Generation"))
							}
						}
						var enc bytes.Buffer
						if err := json.NewEncoder(&enc).Encode(want); err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(body, enc.Bytes()) {
							t.Fatalf("body differs from json.Encoder's envelope:\n got %.300q\nwant %.300q", body, enc.Bytes())
						}

						key := renderKey(got.Params, sections, "json")
						h := sha256.Sum256(append([]byte(key+"\x00"), report...))
						if etag, want := rec.Header().Get("ETag"), `W/"`+hex.EncodeToString(h[:16])+`"`; etag != want {
							t.Fatalf("ETag %s, want %s", etag, want)
						}
					})
				}
			}
		}
	}
}

// TestSmallEntryServedIdentityToGzipClients pins that an entry without a
// gzip variant (under 256 B) goes out identity to a gzip client, with
// Vary still set, on the hit and on the miss that built it.
func TestSmallEntryServedIdentityToGzipClients(t *testing.T) {
	s, _ := envServer(t, "", false)
	_, res := envFixture(t)
	want, _ := turnup.RenderString(res, "corpus")
	if len(want) >= 256 {
		t.Fatalf("corpus section is %d bytes; the test needs one under 256", len(want))
	}
	for _, cache := range []string{"miss", "hit"} {
		rec := serveRecorded(s, "/v1/report/corpus?seed=7&scale=0.02&models=false", map[string]string{"Accept-Encoding": "gzip"})
		if got := rec.Header().Get("X-Cache"); got != cache {
			t.Fatalf("X-Cache %q, want %q", got, cache)
		}
		if enc := rec.Header().Get("Content-Encoding"); enc != "" || rec.Body.String() != want {
			t.Fatalf("%s: Content-Encoding %q, body %q; want identity %q", cache, enc, rec.Body, want)
		}
		if vary := rec.Header().Get("Vary"); vary != "Accept-Encoding" {
			t.Fatalf("%s: Vary %q", cache, vary)
		}
	}
}

// TestJSONGzipHitAllocations guards the hit path against per-request
// compression: a gzip.Writer alone allocates about 0.8 MB, while a warm
// JSON gzip hit, recorder included, needs a few KB.
func TestJSONGzipHitAllocations(t *testing.T) {
	s, _ := envServer(t, "", false)
	path := "/v1/report?seed=7&scale=0.02&models=false&format=json"
	hdr := map[string]string{"Accept-Encoding": "gzip"}
	serveRecorded(s, path, hdr)
	const n = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if rec := serveRecorded(s, path, hdr); rec.Header().Get("Content-Encoding") != "gzip" {
			t.Fatal("warm JSON hit not gzip-encoded")
		}
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("%d B allocated per warm JSON gzip hit", perOp)
	if perOp >= 64<<10 {
		t.Fatalf("warm JSON gzip hit allocates %d B, want under 64 KiB", perOp)
	}
}

// FuzzSpliceGzip feeds arbitrary head and report bytes to the splice: the
// spliced member must decode, as exactly one member, to the head followed
// by the entry's Body, and a JSON entry's Body after the envelope head
// must be what json.Encoder writes for the whole envelope.
func FuzzSpliceGzip(f *testing.F) {
	f.Add([]byte(`{"request_id":"x","report":`), []byte("Table 1 <b>&</b>\n"))
	f.Add([]byte("h"), []byte("\xff\xfe invalid \xc3 UTF-8"))
	f.Add([]byte(" "), []byte("line para sep"))
	f.Add([]byte("\x00\x1f\x7f"), []byte("ctl \x00\x01\x1b\x7f\t\r\n"))
	f.Add([]byte("{"), []byte(""))
	f.Add(bytes.Repeat([]byte("h"), 70000), bytes.Repeat([]byte("report row\n"), 40))
	f.Fuzz(func(t *testing.T, head, report []byte) {
		for _, weak := range []bool{false, true} {
			e := buildRendered("k", Params{}, report, weak, true)
			if e.Gzip == nil {
				// No variant: the member of a body that gzip does not
				// shrink is still a valid input to the splice.
				var buf bytes.Buffer
				zw := gzip.NewWriter(&buf)
				_, _ = zw.Write(e.Body)
				_ = zw.Close()
				e.Gzip = buf.Bytes()
			}
			var wire bytes.Buffer
			if err := writeGzipSplice(&wire, head, e.Body, e.Gzip); err != nil {
				t.Fatal(err)
			}
			if wire.Len() != gzipSpliceLen(head, e.Gzip) {
				t.Fatalf("spliced %d bytes, gzipSpliceLen says %d", wire.Len(), gzipSpliceLen(head, e.Gzip))
			}
			if got := gunzipOne(t, wire.Bytes()); !bytes.Equal(got, append(append([]byte(nil), head...), e.Body...)) {
				t.Fatalf("spliced member decodes to %d bytes, want head+body %d", len(got), len(head)+len(e.Body))
			}
			if !weak {
				continue
			}
			resp := reportResponse{Meta: Meta{RequestID: string(head)}, Sections: []string{string(head)}, Report: string(report)}
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(resp); err != nil {
				t.Fatal(err)
			}
			resp.Report = ""
			h, err := envelopeHead(resp)
			if err != nil {
				t.Fatal(err)
			}
			if got := append(h, e.Body...); !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("envelope\n got %.300q\nwant %.300q", got, want.Bytes())
			}
		}
	})
}
