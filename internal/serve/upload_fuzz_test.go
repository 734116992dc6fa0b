package serve_test

import (
	"archive/zip"
	"bytes"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"turnup"
	"turnup/internal/forum"
	"turnup/internal/serve"
)

// zipEntry is one file of a zip upload body.
type zipEntry struct {
	name string
	body []byte
}

// zipBody builds a zip upload body holding entries, in the order given.
func zipBody(t testing.TB, entries ...zipEntry) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	for _, e := range entries {
		f, err := zw.Create(e.name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(e.body); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeUpload runs DecodeUpload over body under maxBytes, as the upload
// handler does.
func decodeUpload(contentType string, body []byte, maxBytes int64) (*turnup.Dataset, error) {
	r := httptest.NewRequest(http.MethodPost, "/v1/datasets", bytes.NewReader(body))
	r.Header.Set("Content-Type", contentType)
	return serve.DecodeUpload(httptest.NewRecorder(), r, maxBytes)
}

// TestZipBombUploadTooLarge uploads a zip whose contracts.csv is about
// 32 KiB compressed and 32 MiB decompressed, under a 1 MiB upload bound. The
// decoder must stop reading at the bound and answer 413
// dataset_too_large, allocating a small multiple of the bound rather
// than the whole decompressed entry. The allocation is the process-wide
// TotalAlloc delta, which goroutines left by other tests also feed, so
// the test keeps the least of three decodes.
func TestZipBombUploadTooLarge(t *testing.T) {
	const maxBytes = 1 << 20
	body := zipBody(t,
		zipEntry{"contracts.csv", bytes.Repeat([]byte{'0'}, 32<<20)},
		zipEntry{"users.csv", []byte("id\n")})
	if len(body) >= maxBytes {
		t.Fatalf("bomb body is %d bytes, want it under the %d-byte bound", len(body), maxBytes)
	}

	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := decodeUpload("application/zip", body, maxBytes)
		runtime.ReadMemStats(&after)

		if status, code := serve.UploadFailure(err); status != http.StatusRequestEntityTooLarge || code != serve.CodeDatasetTooLarge {
			t.Fatalf("zip bomb: %d %s (%v), want 413 %s", status, code, err, serve.CodeDatasetTooLarge)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 8*maxBytes {
		t.Fatalf("zip bomb decode allocated %d bytes, over 8× the %d-byte bound", least, maxBytes)
	}
}

// FuzzDecodeUpload feeds arbitrary bodies to DecodeUpload as a zip
// archive and as a multipart form, under a small bound. It must never
// panic, and any dataset it accepts, re-zipped as its CSV pair, must
// decode to the same content digest.
func FuzzDecodeUpload(f *testing.F) {
	const boundary = "fuzzboundary"
	contracts, users := csvPair(f, smallDataset(f, 4))
	f.Add(true, zipBody(f, zipEntry{"contracts.csv", contracts}, zipEntry{"users.csv", users}))
	f.Add(true, zipBody(f, zipEntry{"data/users.csv", users}, zipEntry{"data/contracts.csv", contracts}))
	f.Add(true, zipBody(f, zipEntry{"contracts.csv", bytes.Repeat([]byte{'0'}, 128<<10)}, zipEntry{"users.csv", users}))
	f.Add(true, []byte("PKjunk"))
	var mp bytes.Buffer
	mw := multipart.NewWriter(&mp)
	if err := mw.SetBoundary(boundary); err != nil {
		f.Fatal(err)
	}
	for _, part := range [][2]string{{"contracts", string(contracts)}, {"users", string(users)}} {
		if err := mw.WriteField(part[0], part[1]); err != nil {
			f.Fatal(err)
		}
	}
	if err := mw.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(false, mp.Bytes())
	f.Add(false, []byte("--"+boundary+"\r\nContent-Disposition: form-data; name=\"contracts\"\r\n\r\nx\r\n--"+boundary+"--\r\n"))

	f.Fuzz(func(t *testing.T, asZip bool, body []byte) {
		ct := "application/zip"
		if !asZip {
			ct = "multipart/form-data; boundary=" + boundary
		}
		got, err := decodeUpload(ct, body, 64<<10)
		if err != nil {
			return // rejected: the handler answers 4xx
		}
		contracts, users := csvPair(t, got)
		again := zipBody(t, zipEntry{"contracts.csv", contracts}, zipEntry{"users.csv", users})
		back, err := decodeUpload("application/zip", again, int64(len(again)+len(contracts)+len(users)))
		if err != nil {
			t.Fatalf("accepted upload does not decode again from its CSV pair: %v", err)
		}
		want, _ := got.Digest()
		if have, _ := back.Digest(); have != want {
			t.Fatalf("re-zipped upload decodes to digest %s, accepted one %s", have, want)
		}
	})
}

// smallDataset is the first n contracts of tinyDataset with only their
// parties' users: an upload small enough for the fuzz bound.
func smallDataset(t testing.TB, n int) *turnup.Dataset {
	d := tinyDataset(t)
	s := &turnup.Dataset{Users: map[forum.UserID]*forum.User{}, Contracts: d.Contracts[:n]}
	for _, c := range s.Contracts {
		s.Users[c.Maker], s.Users[c.Taker] = d.Users[c.Maker], d.Users[c.Taker]
	}
	return s
}
