package serve

import (
	"strings"
	"testing"
)

// FuzzETagMatch feeds arbitrary If-None-Match headers to etagMatch beside
// one of our own ETags, strong or weak. It must never panic, never match
// an empty header, and match whenever our ETag, in either form and with
// optional surrounding spaces, is one element of a comma-separated list.
func FuzzETagMatch(f *testing.F) {
	for _, h := range []string{
		"", "*", " ", ",", `"abc"`, `W/"abc"`, `"a", W/"b" ,"c"`, `W/`, `W/W/"x"`,
		`"unterminated`, "\x00,\xff", ` , ,`,
	} {
		f.Add(h, "report|seed=1", uint8(0), false)
		f.Add(h, "sections|growth", uint8(3), true)
	}
	f.Fuzz(func(t *testing.T, header, key string, pos uint8, weak bool) {
		etag := buildRendered(key, Params{}, []byte("body"), weak, true).ETag
		etagMatch(header, etag)
		if etagMatch("", etag) {
			t.Fatalf("empty header matched %s", etag)
		}
		for _, form := range []string{etag, strings.TrimPrefix(etag, "W/"), "W/" + strings.TrimPrefix(etag, "W/")} {
			list := strings.Split(header, ",")
			i := int(pos) % (len(list) + 1)
			list = append(list[:i], append([]string{" " + form + " "}, list[i:]...)...)
			if h := strings.Join(list, ","); !etagMatch(h, etag) {
				t.Fatalf("header %q does not match %s", h, etag)
			}
		}
	})
}
