package serve

import (
	"archive/zip"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"turnup"
	"turnup/internal/ingest"
	"turnup/internal/obs"
)

// DatasetInfo describes one stored dataset as /v1/datasets lists it. The
// Ledger marker is explicit ("present" or "absent") rather than a silent
// degradation: uploaded CSV corpora carry no chain evidence, so the §4.5
// audit reports their high-value contracts as unverifiable, and clients
// deserve to know that before reading the report.
type DatasetInfo struct {
	ID        string `json:"id"`
	Digest    string `json:"digest"`
	Users     int    `json:"users"`
	Contracts int    `json:"contracts"`
	Bytes     int64  `json:"bytes"`
	Ledger    string `json:"ledger"` // "present" | "absent"
	// Generation counts content versions of this id: 1 at upload, +1 per
	// applied event batch. It keys the result cache (a report cached at
	// generation g stays valid exactly until an append produces g+1) and
	// is echoed on reports as X-Dataset-Generation.
	Generation uint64 `json:"generation"`
	// Shard is set only by the router's merged listing — the shard the
	// dataset was found on. Single-shard listings leave it empty.
	Shard string `json:"shard,omitempty"`
}

// DatasetID derives the short stable id a dataset is stored and routed
// under from its full content digest. The router computes it for uploads
// so they consistent-hash to the same shard every ?dataset= report for
// that id will route to.
func DatasetID(digest string) string { return "ds-" + digest[:16] }

// ledgerMarker renders the explicit ledger flag for d.
func ledgerMarker(d *turnup.Dataset) string {
	if d.HasLedger() {
		return "present"
	}
	return "absent"
}

// Store is the size/count-bounded in-memory dataset store behind the
// /v1/datasets endpoints. Datasets are identified by a short id derived
// from their content digest, so re-uploading identical bytes is
// idempotent; least-recently-used datasets are evicted once the store
// exceeds its count or canonical-byte bounds. All mutations are counted
// in the registry (serve_datasets_{uploads,deletes,evictions,appends,
// derivations}_total plus the serve_datasets_{count,bytes} gauges) so
// store behaviour is observable on /metrics.
type Store struct {
	reg    *obs.Registry
	onDrop func(id string) // fired (outside mu) when an id leaves the store

	mu       sync.Mutex
	lru      *lru[string, *storeEntry] // DatasetInfo.ID → entry, sized by info.Bytes
	byDigest map[string]*storeEntry    // root and head digests → entry
}

// storeEntry is one stored dataset. info describes the head generation,
// the one the latest append produced. d and ix are the corpus and shared
// analysis Index of the last generation a read derived; head is d plus
// the batches appended since, which is what the next append is validated
// against. The first read of the head generation derives it (see derive).
// d and ix are replaced, never mutated, so a Snapshot handed to an
// in-flight report run stays internally consistent forever. root is the
// generation-1 content digest, kept addressable so re-uploading the
// original bytes stays idempotent after appends have rolled info.Digest.
type storeEntry struct {
	info DatasetInfo
	root string
	d    *turnup.Dataset
	ix   *turnup.Index
	head *ingest.Head
}

// derive brings e's corpus and Index up to the head generation: one
// ingest.Apply and one Index.Append over every pending batch, which is
// O(corpus) once per read generation however many appends it covers.
// Both equal a from-scratch rebuild for any mix of batches (the golden
// incremental contract), so deferring them changes no report byte.
// Callers hold mu.
func (s *Store) derive(e *storeEntry) {
	if e.head.Len() == 0 {
		return
	}
	nd := e.head.Apply()
	e.ix = e.ix.Append(nd, nd.Contracts[len(e.d.Contracts):])
	e.d = nd
	e.head = ingest.NewHead(nd)
	s.reg.Counter("serve_datasets_derivations_total").Inc()
}

// Snapshot pins one dataset generation for the length of a report run:
// the listing entry, the corpus, and its shared Index. handleReport
// resolves it once and threads it to the runner, so a concurrent DELETE,
// LRU eviction, or append can at worst retire the id from the store — the
// run keeps its immutable snapshot and completes normally.
type Snapshot struct {
	Info DatasetInfo
	D    *turnup.Dataset
	Ix   *turnup.Index
}

// OnDrop registers fn to be called — outside the store lock — with the id
// of every dataset that leaves the store, whether by DELETE or LRU
// eviction. The server wires it to result-cache invalidation: once an id
// is gone, a re-upload restarts generations at 1, and any cached results
// for the old content would alias the new (id, generation) keys.
func (s *Store) OnDrop(fn func(id string)) { s.onDrop = fn }

// NewStore builds a dataset store retaining at most maxCount datasets and
// maxBytes total binary-form bytes (<=0 means 16 datasets / 256 MiB).
func NewStore(maxCount int, maxBytes int64, reg *obs.Registry) *Store {
	if maxCount <= 0 {
		maxCount = 16
	}
	if maxBytes <= 0 {
		maxBytes = 256 << 20
	}
	return &Store{
		reg:      reg,
		lru:      newLRU[string, *storeEntry](maxCount, maxBytes),
		byDigest: make(map[string]*storeEntry),
	}
}

// Add stores d and returns its listing entry; created reports whether the
// dataset was new (false: identical content was already stored, and the
// existing entry was refreshed). A dataset larger than the whole store is
// rejected rather than admitted-then-evicted.
func (s *Store) Add(d *turnup.Dataset) (info DatasetInfo, created bool, err error) {
	// Identity is the canonical CSV digest (format-independent: a binary
	// upload of the same corpus dedupes against its CSV twin); the byte
	// accounting is the compact binary size, the form a stored dataset
	// actually occupies and replicates in.
	digest, _ := d.Digest()
	n := d.BinarySize()
	if n > s.lru.maxBytes {
		return DatasetInfo{}, false, fmt.Errorf("dataset of %d binary bytes exceeds the store bound of %d", n, s.lru.maxBytes)
	}
	var dropped []string
	defer func() { s.fireDrops(dropped) }()
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.byDigest[digest]; ok {
		s.lru.get(e.info.ID)
		return e.info, false, nil
	}
	id := DatasetID(digest)
	if _, ok := s.lru.peek(id); ok {
		// Distinct digests sharing a 64-bit id prefix — astronomically
		// unlikely, but refuse rather than alias.
		return DatasetInfo{}, false, fmt.Errorf("dataset id %s collides with a stored dataset of different content", id)
	}
	sum := d.Summary()
	e := &storeEntry{
		info: DatasetInfo{
			ID:         id,
			Digest:     digest,
			Users:      sum.Users,
			Contracts:  sum.Contracts,
			Bytes:      n,
			Ledger:     ledgerMarker(d),
			Generation: 1,
		},
		root: digest,
		d:    d,
		ix:   turnup.NewIndex(d),
		head: ingest.NewHead(d),
	}
	s.byDigest[digest] = e
	s.reg.Counter("serve_datasets_uploads_total").Inc()
	for _, old := range s.lru.add(id, e, n) {
		s.forget(old)
		dropped = append(dropped, old.info.ID)
		s.reg.Counter("serve_datasets_evictions_total").Inc()
	}
	s.gauges()
	return e.info, true, nil
}

// forget drops a departed entry's root and head digests; callers hold mu.
func (s *Store) forget(e *storeEntry) {
	delete(s.byDigest, e.info.Digest)
	delete(s.byDigest, e.root)
}

// fireDrops invokes the drop callback for each departed id. Callers must
// NOT hold mu: the callback reaches into the result cache, and holding
// the store lock across it would order the two locks.
func (s *Store) fireDrops(ids []string) {
	if s.onDrop == nil {
		return
	}
	for _, id := range ids {
		s.onDrop(id)
	}
}

// gauges refreshes the count/byte gauges; callers hold mu.
func (s *Store) gauges() {
	s.reg.Gauge("serve_datasets_count").Set(float64(s.lru.len()))
	s.reg.Gauge("serve_datasets_bytes").Set(float64(s.lru.bytes()))
}

// Snapshot pins the dataset with the given id at its current generation,
// refreshing its recency. The first snapshot of a generation derives its
// corpus and Index from the batches appended since the last read. The
// returned snapshot is immutable: later derivations replace the entry's
// corpus and Index rather than mutating them, so the holder can run a
// full analysis against it while the store moves on.
func (s *Store) Snapshot(id string) (*Snapshot, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.lru.get(id)
	if !ok {
		return nil, false
	}
	s.derive(e)
	return &Snapshot{Info: e.info, D: e.d, Ix: e.ix}, true
}

// ErrUnknownDataset marks an operation naming an id the store does not
// hold (never stored, deleted, or evicted).
var ErrUnknownDataset = errors.New("unknown dataset")

// ErrStoreFull marks an append whose binary bytes would grow the store
// past its byte bound — served as 413 dataset_too_large, like an
// oversized upload.
var ErrStoreFull = errors.New("dataset store byte bound exceeded")

// Append records a validated event batch as the next generation of the
// dataset with the given id, and costs O(batch): it validates the batch
// against the head generation, takes the byte growth from the batch's
// columnar block, and rolls the content digest H(parentDigest ‖ batch
// CSV). The corpus-sized work — the copy-on-write corpus extension and
// the incremental Index — waits for the generation's first read (see
// derive), so a run of appends with no read between them pays it once.
// Snapshots already handed out stay intact. Growth beyond the store's
// byte bound answers an error naming the bound; the dataset itself is
// kept at its previous generation.
func (s *Store) Append(id string, b *ingest.Batch) (DatasetInfo, error) {
	// Render the batch's canonical CSV and build its block outside the
	// lock: the rolling digest commits to the CSV, and the block is both
	// the bytes the append adds and what the derived projection gains.
	var contractsCSV, usersCSV bytes.Buffer
	if err := writeBatchCSV(&contractsCSV, &usersCSV, b); err != nil {
		return DatasetInfo{}, err
	}
	grow := b.BinarySize()

	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.lru.peek(id)
	if !ok {
		return DatasetInfo{}, fmt.Errorf("%w %q", ErrUnknownDataset, id)
	}
	if err := b.ValidateAgainst(e.head); err != nil {
		return DatasetInfo{}, err
	}
	// Growth is the binary-size delta — the same accounting Add uses, so
	// info.Bytes equals the head generation's BinarySize before it is
	// ever derived. Over the bound, the batch is simply not recorded.
	if s.lru.bytes()+grow > s.lru.maxBytes {
		return DatasetInfo{}, fmt.Errorf("%w: append of %d binary bytes exceeds the bound of %d", ErrStoreFull, grow, s.lru.maxBytes)
	}
	h := sha256.New()
	h.Write([]byte(e.info.Digest))
	h.Write(contractsCSV.Bytes())
	h.Write(usersCSV.Bytes())
	digest := hex.EncodeToString(h.Sum(nil))

	// The root digest stays addressable so re-uploading the original
	// bytes dedupes to this (now-later-generation) entry instead of
	// colliding on the id.
	if e.info.Digest != e.root {
		delete(s.byDigest, e.info.Digest)
	}
	s.byDigest[digest] = e
	e.head.Push(b)
	e.info.Digest = digest
	e.info.Users += len(b.Users)
	e.info.Contracts += len(b.Contracts)
	e.info.Bytes += grow
	e.info.Generation++
	s.lru.resize(id, e.info.Bytes)
	s.lru.get(id)
	s.reg.Counter("serve_datasets_appends_total").Inc()
	s.reg.Counter("serve_events_applied_total").Add(int64(b.Len()))
	s.gauges()
	return e.info, nil
}

// writeBatchCSV renders the batch in the canonical hfgen CSV forms — the
// byte stream the rolling digest commits to, so identical appends to
// identical parents always produce identical digests.
func writeBatchCSV(contracts, users *bytes.Buffer, b *ingest.Batch) error {
	if err := ingest.WriteBatchContractsCSV(contracts, b.Contracts); err != nil {
		return err
	}
	return ingest.WriteBatchUsersCSV(users, b.Users)
}

// List returns every stored dataset, most recently used first.
func (s *Store) List() []DatasetInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]DatasetInfo, 0, s.lru.len())
	s.lru.each(func(_ string, e *storeEntry, _ int64) { out = append(out, e.info) })
	return out
}

// Delete removes the dataset with the given id, reporting whether it was
// present. The drop callback then purges the id's cached report results —
// a re-upload restarts at generation 1, and stale entries would alias its
// keys. A report run already holding the snapshot completes normally.
func (s *Store) Delete(id string) bool {
	s.mu.Lock()
	e, ok := s.lru.remove(id)
	if !ok {
		s.mu.Unlock()
		return false
	}
	s.forget(e)
	s.reg.Counter("serve_datasets_deletes_total").Inc()
	s.gauges()
	s.mu.Unlock()
	s.fireDrops([]string{id})
	return true
}

// Len reports the number of stored datasets.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.len()
}

// ErrUnsupportedUpload marks an upload body whose Content-Type is none of
// multipart form data, a zip archive, or the binary dataset form.
var ErrUnsupportedUpload = errors.New("unsupported Content-Type: want multipart/form-data, application/zip, or " + turnup.ContentTypeBinary)

// DecodeUpload parses a POST /v1/datasets body — the hfgen CSV pair as
// multipart form files ("contracts", "users"), as a zip archive holding
// contracts.csv and users.csv, or the versioned binary dataset form under
// its dedicated Content-Type (the router's replication format) — into a
// validated Dataset, bounding the body at maxBytes. It is shared with the
// router, which must parse uploads too: ownership is by content digest,
// and the digest only exists after a parse. Classify failures with
// UploadFailure.
func DecodeUpload(w http.ResponseWriter, r *http.Request, maxBytes int64) (*turnup.Dataset, error) {
	if maxBytes <= 0 {
		maxBytes = 256 << 20
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	var d *turnup.Dataset
	var err error
	ct := r.Header.Get("Content-Type")
	switch {
	case strings.HasPrefix(ct, "multipart/"):
		d, err = readMultipartDataset(r)
	case strings.HasPrefix(ct, turnup.ContentTypeBinary):
		d, err = turnup.ReadBinary(r.Body)
	case strings.Contains(ct, "zip"), ct == "", ct == "application/octet-stream":
		d, err = readZipDataset(r.Body, maxBytes)
	default:
		return nil, fmt.Errorf("%w (got %q)", ErrUnsupportedUpload, ct)
	}
	if err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// UploadFailure maps a DecodeUpload (or Store.Add) error onto its HTTP
// status and API v1 error code: oversized bodies, and zip entries that
// decompress past the same bound, are 413 dataset_too_large;
// unsupported encodings 415; and everything else — malformed CSV,
// missing halves — 400 bad_params.
func UploadFailure(err error) (status int, code string) {
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge, CodeDatasetTooLarge
	case errors.Is(err, ErrUnsupportedUpload):
		return http.StatusUnsupportedMediaType, CodeBadParams
	default:
		return http.StatusBadRequest, CodeBadParams
	}
}

// uploadResponse is the JSON body of POST /v1/datasets: the stored
// listing entry inside the uniform v1 envelope. 201 means the dataset
// was new; 200 means identical content was already stored.
type uploadResponse struct {
	Meta
	Dataset DatasetInfo `json:"dataset"`
}

// handleDatasetUpload serves POST /v1/datasets: decode, digest, and
// store the corpus for ?dataset= report requests. Oversized bodies
// answer 413 dataset_too_large, parse failures 400 bad_params;
// re-uploading identical content answers 200 with the existing entry
// instead of 201.
func (s *Server) handleDatasetUpload(w http.ResponseWriter, r *http.Request) {
	d, err := DecodeUpload(w, r, s.opts.MaxDatasetBytes)
	if err != nil {
		status, code := UploadFailure(err)
		s.fail(w, r, status, code, err)
		return
	}
	info, created, err := s.datasets.Add(d)
	if err != nil {
		s.fail(w, r, http.StatusRequestEntityTooLarge, CodeDatasetTooLarge, err)
		return
	}
	code := http.StatusOK
	if created {
		code = http.StatusCreated
	}
	writeJSON(w, code, uploadResponse{Meta: s.meta(r), Dataset: info})
}

// readMultipartDataset pulls the CSV pair out of a multipart form. The
// canonical field names are "contracts" and "users"; files named
// contracts.csv / users.csv are accepted under any field name.
func readMultipartDataset(r *http.Request) (*turnup.Dataset, error) {
	mr, err := r.MultipartReader()
	if err != nil {
		return nil, err
	}
	var contracts, users []byte
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		b, err := io.ReadAll(part)
		part.Close()
		if err != nil {
			return nil, err
		}
		switch {
		case part.FormName() == "contracts", part.FileName() == "contracts.csv":
			contracts = b
		case part.FormName() == "users", part.FileName() == "users.csv":
			users = b
		}
	}
	return readPair(contracts, users)
}

// readZipDataset reads body as a zip archive holding contracts.csv and
// users.csv (any directory prefix). The entries it reads may decompress
// to at most maxBytes in total, the bound the body itself is held to, so
// a small archive of highly compressible bytes cannot make it allocate
// without limit; past that it fails as an oversized body does.
func readZipDataset(body io.Reader, maxBytes int64) (*turnup.Dataset, error) {
	raw, err := io.ReadAll(body)
	if err != nil {
		return nil, err
	}
	zr, err := zip.NewReader(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		return nil, fmt.Errorf("reading zip body: %w", err)
	}
	var contracts, users []byte
	remaining := maxBytes
	for _, zf := range zr.File {
		name := zf.Name
		if i := strings.LastIndexByte(name, '/'); i >= 0 {
			name = name[i+1:]
		}
		if name != "contracts.csv" && name != "users.csv" {
			continue
		}
		f, err := zf.Open()
		if err != nil {
			return nil, err
		}
		b, err := io.ReadAll(io.LimitReader(f, remaining+1))
		f.Close()
		if err != nil {
			return nil, err
		}
		if remaining -= int64(len(b)); remaining < 0 {
			return nil, fmt.Errorf("zip entries decompress past the upload bound: %w", &http.MaxBytesError{Limit: maxBytes})
		}
		if name == "contracts.csv" {
			contracts = b
		} else {
			users = b
		}
	}
	return readPair(contracts, users)
}

// readPair parses the two CSV bodies into a Dataset, requiring both.
func readPair(contracts, users []byte) (*turnup.Dataset, error) {
	if contracts == nil {
		return nil, errors.New("upload is missing contracts.csv (multipart field \"contracts\")")
	}
	if users == nil {
		return nil, errors.New("upload is missing users.csv (multipart field \"users\")")
	}
	return turnup.ReadCSV(bytes.NewReader(contracts), bytes.NewReader(users))
}

// datasetsResponse is the JSON body of GET /v1/datasets — a named field
// inside the v1 envelope rather than a bare array, so the listing can
// grow (per-shard attribution, totals) without breaking clients.
type datasetsResponse struct {
	Meta
	Datasets []DatasetInfo `json:"datasets"`
}

// handleDatasetList serves GET /v1/datasets.
func (s *Server) handleDatasetList(w http.ResponseWriter, r *http.Request) {
	infos := s.datasets.List()
	if wantJSON(r) {
		writeJSON(w, http.StatusOK, datasetsResponse{Meta: s.meta(r), Datasets: infos})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for _, in := range infos {
		fmt.Fprintf(w, "%s digest=%s users=%d contracts=%d bytes=%d ledger=%s\n",
			in.ID, in.Digest, in.Users, in.Contracts, in.Bytes, in.Ledger)
	}
}

// handleDatasetDelete serves DELETE /v1/datasets/{id}.
func (s *Server) handleDatasetDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.datasets.Delete(id) {
		s.fail(w, r, http.StatusNotFound, CodeUnknownDataset, fmt.Errorf("unknown dataset %q", id))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
