package serve

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"sync"

	"turnup/internal/obs"
)

// renderKey keys one rendered body: the canonical Params key (which folds
// in the dataset generation, so an append invalidates by construction),
// the requested section list in request order (order is semantic — Render
// emits sections in the order asked), and the response format. The key is
// what the ETag is derived from, so two requests that would serve the
// same bytes revalidate against the same ETag.
func renderKey(p Params, sections []string, format string) string {
	return p.Key() + "|" + strings.Join(sections, ",") + "|" + format
}

// Rendered is one cached rendered body, held in the form its responses
// are written in, so a hit encodes nothing but the per-request envelope
// head and compresses nothing at all. Body is what follows that head on
// the wire: the whole text report (no head), or for JSON the report as
// an encoded string literal that closes the envelope (`"…"}` and a
// newline; see envelopeHead). Gzip, when non-nil, is Body as one gzip
// member, compressed once when the entry is built: a text hit for a gzip
// client writes it verbatim, and a JSON hit splices its head into it
// (writeGzipSplice). ETag is the fully formed header value: a strong
// `"…"` when Body is byte-identical to the response body (text), a weak
// `W/"…"` when the response wraps Body in a per-request envelope (JSON).
// Entries are immutable once built — they are served concurrently
// without copying.
type Rendered struct {
	Key    string
	Params Params
	Body   []byte
	Gzip   []byte
	ETag   string
	size   int64
}

// buildRendered assembles an entry outside any lock from the rendered
// report body: content hash → ETag, the JSON string encoding for JSON
// entries (weak), and, when compress is set, the gzip variant. The ETag
// hashes the render key alongside the raw report, so equal reports under
// different parameters still get distinct validators, and a JSON ETag is
// the same whatever form the entry stores. The gzip variant is only kept
// when it actually shrinks Body; tiny or incompressible bodies are served
// identity-only.
func buildRendered(key string, p Params, body []byte, weak, compress bool) *Rendered {
	h := sha256.Sum256(append([]byte(key+"\x00"), body...))
	etag := `"` + hex.EncodeToString(h[:16]) + `"`
	if weak {
		etag = "W/" + etag
		body = jsonTail(body)
	}
	e := &Rendered{Key: key, Params: p, Body: body, ETag: etag}
	if compress && len(body) >= 256 {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		_, _ = zw.Write(body)
		if err := zw.Close(); err == nil && buf.Len() < len(body) {
			e.Gzip = buf.Bytes()
		}
	}
	e.size = int64(len(e.Body)+len(e.Gzip)+len(e.Key)+len(e.ETag)) + 96
	return e
}

// jsonTail encodes report the way json.Encoder encodes reportResponse's
// last field, and closes the envelope after it: the string literal, `}`
// and the encoder's newline.
func jsonTail(report []byte) []byte {
	b, _ := json.Marshal(string(report)) // a string always encodes
	return append(b, '}', '\n')
}

// RenderCache is the second cache tier: rendered bodies keyed by
// (params, sections, format), byte-budgeted LRU like the result cache
// but holding small []byte values instead of whole result suites — a hot
// hit skips Render entirely. A nil *RenderCache is a valid disabled
// cache: Get always misses and Put builds the entry, without a gzip
// variant, and does not retain it.
type RenderCache struct {
	maxEntry int64 // admission bound: maxBytes/4, one body cannot flush the tier
	reg      *obs.Registry

	mu  sync.Mutex
	lru *lru[string, *Rendered] // render key → body, no count bound
}

// NewRenderCache builds a render cache with the given byte budget
// (<=0 means 64 MiB).
func NewRenderCache(maxBytes int64, reg *obs.Registry) *RenderCache {
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	// Pre-register the tier's counters so /metrics carries them at 0 from
	// boot rather than materialising them on first use.
	for _, name := range []string{
		"serve_render_cache_hits_total", "serve_render_cache_misses_total",
		"serve_render_cache_evictions_total", "serve_render_cache_invalidations_total",
		"serve_render_cache_rejected_total",
	} {
		reg.Counter(name)
	}
	rc := &RenderCache{
		maxEntry: maxBytes / 4,
		reg:      reg,
		lru:      newLRU[string, *Rendered](0, maxBytes),
	}
	rc.syncGauges()
	return rc
}

// syncGauges mirrors the byte and entry accounting into the registry;
// callers hold mu.
func (rc *RenderCache) syncGauges() {
	rc.reg.Gauge("serve_render_cache_bytes").Set(float64(rc.lru.bytes()))
	rc.reg.Gauge("serve_render_cache_entries").Set(float64(rc.lru.len()))
}

// Get returns the cached rendered body for key, counting the outcome in
// serve_render_cache_{hits,misses}_total.
func (rc *RenderCache) Get(key string) (*Rendered, bool) {
	if rc == nil {
		return nil, false
	}
	rc.mu.Lock()
	e, ok := rc.lru.get(key)
	rc.mu.Unlock()
	if !ok {
		rc.reg.Counter("serve_render_cache_misses_total").Inc()
		return nil, false
	}
	rc.reg.Counter("serve_render_cache_hits_total").Inc()
	return e, true
}

// Put builds the entry for (key, p, body) and admits it, evicting from
// the LRU back until the byte budget holds. Bodies larger than a quarter
// of the budget are built but never retained
// (serve_render_cache_rejected_total). The entry is returned either way,
// so the caller serves this response from it regardless of admission.
// A disabled tier compresses nothing: its entry serves one response,
// identity to every client.
func (rc *RenderCache) Put(key string, p Params, body []byte, weak bool) *Rendered {
	e := buildRendered(key, p, body, weak, rc != nil)
	if rc == nil {
		return e
	}
	if e.size > rc.maxEntry {
		rc.reg.Counter("serve_render_cache_rejected_total").Inc()
		return e
	}
	rc.mu.Lock()
	if _, ok := rc.lru.get(key); ok {
		// A racing miss already installed this key; keep the incumbent.
		rc.mu.Unlock()
		return e
	}
	evicted := len(rc.lru.add(key, e, e.size))
	rc.syncGauges()
	rc.mu.Unlock()
	if evicted > 0 {
		rc.reg.Counter("serve_render_cache_evictions_total").Add(int64(evicted))
	}
	return e
}

// EvictWhere drops every entry whose Params satisfy pred — the render
// tier's half of the invalidation the result cache's EvictWhere performs,
// driven by the same hooks (dataset drop, generation advance).
func (rc *RenderCache) EvictWhere(pred func(Params) bool) int {
	if rc == nil {
		return 0
	}
	rc.mu.Lock()
	n := rc.lru.removeWhere(func(e *Rendered) bool { return pred(e.Params) })
	if n > 0 {
		rc.syncGauges()
	}
	rc.mu.Unlock()
	if n > 0 {
		rc.reg.Counter("serve_render_cache_invalidations_total").Add(int64(n))
	}
	return n
}

// Bytes reports the byte accounting over retained entries.
func (rc *RenderCache) Bytes() int64 {
	if rc == nil {
		return 0
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.lru.bytes()
}

// Len reports the number of retained rendered bodies.
func (rc *RenderCache) Len() int {
	if rc == nil {
		return 0
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.lru.len()
}
