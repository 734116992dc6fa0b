package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// Ended reports whether End has been called.
func (s *Span) Ended() bool { return s != nil && !s.Stop.IsZero() }

// goldenTree builds a fully deterministic span tree (fixed clock, no
// tracer), matching what a traced generate→analyse run produces in shape.
func goldenTree() *Span {
	t0 := time.Date(2020, 3, 11, 12, 0, 0, 0, time.UTC)
	month := &Span{
		Name: "month/2020-03", Start: t0.Add(time.Second), Stop: t0.Add(3 * time.Second),
		AllocBytes: 2048, Mallocs: 12,
		Attrs: []Attr{{Key: "contracts", Value: "490"}, {Key: "posts", Value: "1200"}},
	}
	era := &Span{
		Name: "era/COVID-19", Start: t0.Add(time.Second), Stop: t0.Add(5 * time.Second),
		AllocBytes: 4096, Mallocs: 40,
		Children: []*Span{month},
	}
	return &Span{
		Name: "hfrepro", Start: t0, Stop: t0.Add(10 * time.Second),
		AllocBytes: 8192, Mallocs: 100,
		Children: []*Span{era},
	}
}

func TestFlattenPathsAndDepth(t *testing.T) {
	recs := Flatten(goldenTree())
	if len(recs) != 3 {
		t.Fatalf("records = %d, want 3", len(recs))
	}
	wantPaths := []string{"hfrepro", "hfrepro/era/COVID-19", "hfrepro/era/COVID-19/month/2020-03"}
	for i, r := range recs {
		if r.Path != wantPaths[i] {
			t.Errorf("record %d path = %q, want %q", i, r.Path, wantPaths[i])
		}
		if r.Depth != i {
			t.Errorf("record %d depth = %d, want %d", i, r.Depth, i)
		}
	}
	if recs[2].WallMS != 2000 {
		t.Errorf("month wall = %vms, want 2000", recs[2].WallMS)
	}
	if recs[2].Attrs["contracts"] != "490" {
		t.Errorf("month attrs = %v", recs[2].Attrs)
	}
}

// TestJSONGoldenRoundTrip checks the exporter against a committed golden
// file and that decoding WriteJSON(tree) reproduces Flatten(tree) exactly.
func TestJSONGoldenRoundTrip(t *testing.T) {
	root := goldenTree()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, root); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "trace_golden.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("JSON trace differs from golden file:\n got: %s\nwant: %s", buf.Bytes(), want)
	}

	var recs []Record
	if err := json.Unmarshal(buf.Bytes(), &recs); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, Flatten(root)) {
		t.Errorf("round-trip mismatch:\n got %+v\nwant %+v", recs, Flatten(root))
	}
}
