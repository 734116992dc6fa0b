package turnup

import (
	"bytes"
	"os"
	"runtime"
	"testing"

	"turnup/internal/dataset"
)

// TestRenderAllMatchesPreIndexGolden pins the analysis index migration to
// the exact bytes the pre-index pipeline produced:
// testdata/golden_suite_seed7_scale0.02_k6.txt was rendered by the
// per-stage-rescan implementation (full suite, Seed 7, Scale 0.02, K 6)
// before the shared Index existed. The indexed suite must reproduce it
// byte-for-byte at every worker count — memoizing the corpus groupings
// and obligation classifications is a pure performance change.
func TestRenderAllMatchesPreIndexGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/golden_suite_seed7_scale0.02_k6.txt")
	if err != nil {
		t.Fatal(err)
	}
	d, err := Generate(Config{Seed: 7, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		res, err := Run(d, RunOptions{Seed: 7, LatentClassK: 6, Workers: w})
		if err != nil {
			t.Fatalf("Workers=%d: %v", w, err)
		}
		if got := RenderAll(res); got != string(want) {
			t.Errorf("Workers=%d: RenderAll diverged from the pre-index golden (%d vs %d bytes)",
				w, len(got), len(want))
		}
	}

	// The columnar binary format is a pure storage change: a corpus pushed
	// through WriteBinary/ReadBinary must keep its content digest and
	// render the same golden bytes (ledger-dependent sections excluded —
	// the binary form, like the CSV pair, drops chain evidence, so the
	// suite runs on the generated dataset both times; only the digest and
	// a render over the decoded corpus are compared here).
	var bin bytes.Buffer
	if err := WriteBinary(&bin, d); err != nil {
		t.Fatal(err)
	}
	rt, err := ReadBinary(&bin)
	if err != nil {
		t.Fatal(err)
	}
	wantDigest, _ := d.Digest()
	gotDigest, _ := rt.Digest()
	if gotDigest != wantDigest {
		t.Fatalf("binary round trip digest %s, want %s", gotDigest, wantDigest)
	}
	res, err := Run(rt, RunOptions{Seed: 7, LatentClassK: 6, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	csvRef, err := ReadCSV(csvPairReaders(t, d))
	if err != nil {
		t.Fatal(err)
	}
	refRes, err := Run(csvRef, RunOptions{Seed: 7, LatentClassK: 6, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if RenderAll(res) != RenderAll(refRes) {
		t.Error("binary-loaded corpus renders differently from its CSV twin")
	}
}

// TestRenderAllMatchesK12Golden pins the model kernels at the paper's
// class count: testdata/golden_suite_seed7_scale0.02_k12.txt was rendered
// (full suite, Seed 7, Scale 0.02, K 12) before the LCA and ZIP/IRLS
// kernels were rewritten to tabulate their logs and lgammas. The rewrite
// keeps every floating-point operation that feeds a result, so the
// report must match byte for byte at every worker count.
func TestRenderAllMatchesK12Golden(t *testing.T) {
	want, err := os.ReadFile("testdata/golden_suite_seed7_scale0.02_k12.txt")
	if err != nil {
		t.Fatal(err)
	}
	d, err := Generate(Config{Seed: 7, Scale: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		res, err := Run(d, RunOptions{Seed: 7, LatentClassK: 12, Workers: w})
		if err != nil {
			t.Fatalf("Workers=%d: %v", w, err)
		}
		if got := RenderAll(res); got != string(want) {
			t.Errorf("Workers=%d: RenderAll diverged from the k=12 golden (%d vs %d bytes)",
				w, len(got), len(want))
		}
	}
}

// csvPairReaders renders d's canonical CSV pair in memory.
func csvPairReaders(t *testing.T, d *Dataset) (contracts, users *bytes.Reader) {
	t.Helper()
	var cb, ub bytes.Buffer
	if err := dataset.WriteContractsCSV(&cb, d.Contracts); err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteUsersCSV(&ub, d.Users); err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(cb.Bytes()), bytes.NewReader(ub.Bytes())
}
