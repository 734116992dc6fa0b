package serve

import (
	"compress/gzip"
	"encoding/binary"
	"hash/crc32"
	"io"
	"net/http"
	"strings"
)

// acceptsGzip reports whether the client negotiates gzip. A plain
// substring test over Accept-Encoding matches the metrics handler's
// behaviour; "gzip;q=0" is rare enough to ignore for an internal tier.
func acceptsGzip(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept-Encoding"), "gzip")
}

// negotiateGzip sets Vary: Accept-Encoding (on every response, compressed
// or not — caches must key on the header either way) and, when the client
// accepts gzip, returns a lazily compressing wrapper. The caller must
// invoke the returned flush after the handler body. Compression starts at
// the first write; WriteHeader skips bodiless statuses (204/304). Report
// responses do not come through here: they carry their own gzip variant
// (see Server.writeRendered), and only a disabled render tier streams
// through this wrapper.
func negotiateGzip(w http.ResponseWriter, r *http.Request) (http.ResponseWriter, func()) {
	w.Header().Add("Vary", "Accept-Encoding")
	if !acceptsGzip(r) {
		return w, func() {}
	}
	gw := &gzipResponseWriter{ResponseWriter: w}
	return gw, gw.flush
}

// gzipResponseWriter compresses the response body when the status allows
// a body.
type gzipResponseWriter struct {
	http.ResponseWriter
	zw          *gzip.Writer
	wroteHeader bool
	passthrough bool
}

func (g *gzipResponseWriter) WriteHeader(code int) {
	if g.wroteHeader {
		return
	}
	g.wroteHeader = true
	if code == http.StatusNoContent || code == http.StatusNotModified {
		g.passthrough = true
	} else {
		g.Header().Set("Content-Encoding", "gzip")
		g.Header().Del("Content-Length")
		g.zw = gzip.NewWriter(g.ResponseWriter)
	}
	g.ResponseWriter.WriteHeader(code)
}

func (g *gzipResponseWriter) Write(p []byte) (int, error) {
	if !g.wroteHeader {
		g.WriteHeader(http.StatusOK)
	}
	if g.passthrough {
		return g.ResponseWriter.Write(p)
	}
	return g.zw.Write(p)
}

// flush terminates the gzip stream (writing its footer); it must run
// after the handler body, deferred by the wrapping handler.
func (g *gzipResponseWriter) flush() {
	if g.zw != nil {
		_ = g.zw.Close()
	}
}

// A gzip member (RFC 1952) is a 10-byte header, a raw deflate stream
// (RFC 1951) and an 8-byte trailer: the CRC-32 and the length mod 2^32 of
// the uncompressed data. gzip.Writer with a zero Header writes no name,
// comment, extra field or mtime, so the header of the members
// buildRendered stores is always these 10 bytes.
const (
	gzipHeaderLen  = 10
	gzipTrailerLen = 8
	storedMax      = 65535 // bytes one stored deflate block can hold
	storedHdrLen   = 5     // a stored block's header: type byte, LEN, NLEN
)

// storedLen is the length of n bytes as stored deflate blocks.
func storedLen(n int) int { return n + (n+storedMax-1)/storedMax*storedHdrLen }

// gzipSpliceLen is the length of the member writeGzipSplice writes.
func gzipSpliceLen(head, member []byte) int { return len(member) + storedLen(len(head)) }

// writeGzipSplice writes one gzip member of head followed by body, given
// member, a gzip member of body alone, without compressing anything: the
// member's header, then head as stored (uncompressed) deflate blocks,
// then the member's deflate stream, whose final block ends the combined
// stream, then a trailer over head and body. A stored block is non-final
// and byte-aligned, so the member's stream continues it as it stands.
// Only the CRC pass over body is paid per call, and only with a head:
// without one the member is already the answer.
func writeGzipSplice(w io.Writer, head, body, member []byte) error {
	if len(head) == 0 {
		_, err := w.Write(member)
		return err
	}
	pre := make([]byte, 0, gzipHeaderLen+storedLen(len(head)))
	pre = append(pre, member[:gzipHeaderLen]...)
	for rest := head; len(rest) > 0; {
		k := min(len(rest), storedMax)
		pre = append(pre, 0) // BFINAL=0, BTYPE=00 (stored), padded to the byte
		pre = binary.LittleEndian.AppendUint16(pre, uint16(k))
		pre = binary.LittleEndian.AppendUint16(pre, ^uint16(k))
		pre = append(pre, rest[:k]...)
		rest = rest[k:]
	}
	var post [gzipTrailerLen]byte
	crc := crc32.Update(crc32.ChecksumIEEE(head), crc32.IEEETable, body)
	binary.LittleEndian.PutUint32(post[:4], crc)
	binary.LittleEndian.PutUint32(post[4:], uint32(len(head)+len(body)))
	for _, b := range [][]byte{pre, member[gzipHeaderLen : len(member)-gzipTrailerLen], post[:]} {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}
