package dataset

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"turnup/internal/forum"
)

// richDataset is seedDataset plus the fields the binary format must carry
// through spans and raw columns: obligation text (with interning-worthy
// repeats), chain evidence, ratings outside int8, and a user with ID 0.
func richDataset(t *testing.T) *Dataset {
	t.Helper()
	d := seedDataset(t)
	d.Users[0] = &forum.User{ID: 0, Joined: SetupStart}
	d.Users[90001] = &forum.User{ID: 90001, Joined: StableStart, Posts: 3}
	d.Contracts[0].MakerObligation = "selling $25 amazon giftcard, btc only"
	d.Contracts[0].TakerObligation = "paying 0.004 btc"
	d.Contracts[0].BTCAddress = "1abc"
	d.Contracts[0].TxHash = "ffee"
	d.Contracts[0].MakerRating = 10
	d.Contracts[0].TakerRating = -1 << 40
	d.Contracts[2].MakerObligation = "selling $25 amazon giftcard, btc only" // repeat: interned
	return d
}

// TestBinaryRoundTripDigest pins the format's core contract: a binary
// round-trip reproduces the exact canonical content digest of the corpus
// it encoded — same bytes out of the CSV writers, field for field.
func TestBinaryRoundTripDigest(t *testing.T) {
	d := richDataset(t)
	wantDigest, _ := d.Digest()

	var buf bytes.Buffer
	if err := d.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != d.BinarySize() {
		t.Fatalf("encoded %d bytes, BinarySize says %d", buf.Len(), d.BinarySize())
	}
	got, err := DecodeBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	gotDigest, _ := got.Digest()
	if gotDigest != wantDigest {
		t.Fatalf("digest %s after round trip, want %s", gotDigest, wantDigest)
	}
	if len(got.Contracts) != len(d.Contracts) || len(got.Users) != len(d.Users) {
		t.Fatalf("round trip %d contracts / %d users, want %d / %d",
			len(got.Contracts), len(got.Users), len(d.Contracts), len(d.Users))
	}
	if got.Contracts[0].TakerRating != -1<<40 {
		t.Fatalf("wide rating %d, want %d", got.Contracts[0].TakerRating, -1<<40)
	}
}

// TestBinaryMultiBlockRoundTrip encodes a two-block columnar projection —
// the shape an appended generation has — and checks the digest still
// round-trips. Multi-block bytes may differ from a fresh single-block
// encode (arena interning is per block); the digest must not.
func TestBinaryMultiBlockRoundTrip(t *testing.T) {
	parent := richDataset(t)
	parent.Columns() // materialise the parent's projection

	added := []*forum.Contract{}
	child := &Dataset{
		Users:     parent.Users,
		Threads:   parent.Threads,
		Posts:     parent.Posts,
		Contracts: parent.Contracts,
		Ledger:    parent.Ledger,
	}
	c := mkContract(t, child, 50, forum.Sale, 1, 3, time.Date(2020, 5, 2, 0, 0, 0, 0, time.UTC), true, true)
	c.MakerObligation = "selling $25 amazon giftcard, btc only" // repeats a parent-block string
	added = append(added, c)
	child.SetColumns(&Columns{Blocks: append(parent.Columns().Blocks, BuildBlock(added))})

	if nb := len(child.Columns().Blocks); nb != 2 {
		t.Fatalf("extended projection has %d blocks, want 2", nb)
	}
	var buf bytes.Buffer
	if err := child.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != child.BinarySize() {
		t.Fatalf("encoded %d bytes, BinarySize says %d", buf.Len(), child.BinarySize())
	}
	got, err := DecodeBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	wantDigest, _ := child.Digest()
	gotDigest, _ := got.Digest()
	if gotDigest != wantDigest {
		t.Fatalf("multi-block digest %s, want %s", gotDigest, wantDigest)
	}
}

// TestBinaryRejectsCorruption walks the validation ladder: magic, version,
// section bounds, and truncation must all fail loudly, never panic.
func TestBinaryRejectsCorruption(t *testing.T) {
	d := richDataset(t)
	var buf bytes.Buffer
	if err := d.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	corrupt := func(mutate func(b []byte)) error {
		b := append([]byte(nil), good...)
		mutate(b)
		_, err := DecodeBinary(bytes.NewReader(b))
		return err
	}
	if err := corrupt(func(b []byte) { b[0] = 'X' }); err == nil {
		t.Error("bad magic accepted")
	}
	if err := corrupt(func(b []byte) { b[4] = 99 }); err == nil {
		t.Error("unknown version accepted")
	}
	if err := corrupt(func(b []byte) { b[16] = 0xff; b[17] = 0xff; b[18] = 0xff; b[19] = 0xff }); err == nil {
		t.Error("section offset past EOF accepted")
	}
	if _, err := DecodeBinary(bytes.NewReader(good[:headerLen-1])); err == nil {
		t.Error("truncated header accepted")
	}
	if _, err := DecodeBinary(bytes.NewReader(good[:len(good)-3])); err == nil {
		t.Error("truncated arena accepted")
	}
}

// TestLoadDirPrefersBinary proves LoadDir reads dataset.bin, not the CSV
// pair: after SaveDir, the CSVs are overwritten with garbage and the load
// must still succeed with the original content.
func TestLoadDirPrefersBinary(t *testing.T) {
	d := richDataset(t)
	dir := t.TempDir()
	if err := d.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"contracts.csv", "users.csv"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("garbage\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantDigest, _ := d.Digest()
	gotDigest, _ := got.Digest()
	if gotDigest != wantDigest {
		t.Fatalf("binary-path load digest %s, want %s", gotDigest, wantDigest)
	}

	// A corrupt dataset.bin is a hard error, not a silent CSV fallback.
	if err := os.WriteFile(filepath.Join(dir, BinaryName), []byte("TUDSgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(dir); err == nil {
		t.Error("corrupt dataset.bin fell back silently")
	}
}

// TestWindowCheckAtLoad pins the loud out-of-window boundary check on both
// load paths. MonthOf clamps out-of-range times into the edge months, so
// without this check a mis-dated corpus would silently pile into month 0
// or 24 instead of failing.
func TestWindowCheckAtLoad(t *testing.T) {
	early := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)
	if InWindow(early) || !InWindow(SetupStart) || InWindow(StudyEnd) {
		t.Fatal("InWindow boundary semantics wrong")
	}

	// CSV path: Read must reject the contract, naming ErrOutOfWindow.
	bad := seedDataset(t)
	bad.Contracts[1].Created = early
	var cbuf, ubuf bytes.Buffer
	if err := WriteContractsCSV(&cbuf, bad.Contracts); err != nil {
		t.Fatal(err)
	}
	if err := WriteUsersCSV(&ubuf, bad.Users); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&cbuf, &ubuf); !errors.Is(err, ErrOutOfWindow) {
		t.Fatalf("CSV load of out-of-window contract: %v, want ErrOutOfWindow", err)
	}

	// Binary path: EncodeBinary does not validate (it trusts its caller),
	// DecodeBinary must.
	var bbuf bytes.Buffer
	if err := bad.EncodeBinary(&bbuf); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBinary(&bbuf); !errors.Is(err, ErrOutOfWindow) {
		t.Fatalf("binary load of out-of-window contract: %v, want ErrOutOfWindow", err)
	}
}

// TestUsersCSVSparseAndNonPositiveIDs is the regression for the dense
// 1..maxID writer loop: users with ID <= 0 were silently dropped, and a
// sparse ID space paid O(maxID). The sorted-keys writer must emit every
// user exactly once, in ID order.
func TestUsersCSVSparseAndNonPositiveIDs(t *testing.T) {
	users := map[forum.UserID]*forum.User{
		-7:      {ID: -7, Joined: SetupStart},
		0:       {ID: 0, Joined: SetupStart},
		3:       {ID: 3, Joined: StableStart, Posts: 9},
		1 << 40: {ID: 1 << 40, Joined: CovidStart},
	}
	var buf bytes.Buffer
	if err := WriteUsersCSV(&buf, users); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(users) {
		t.Fatalf("wrote %d lines, want header + %d users:\n%s", len(lines), len(users), buf.String())
	}
	wantOrder := []string{"-7", "0", "3", "1099511627776"}
	for i, id := range wantOrder {
		if !strings.HasPrefix(lines[1+i], id+",") {
			t.Fatalf("line %d = %q, want id %s first (sorted order)", 1+i, lines[1+i], id)
		}
	}
	got, err := ReadUsersCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(users) {
		t.Fatalf("round trip %d users, want %d", len(got), len(users))
	}
	if got[0] == nil || got[-7] == nil || got[3].Posts != 9 {
		t.Fatalf("round trip lost a sparse/non-positive user: %+v", got)
	}
}

// TestCSVRejectsReorderedHeaders pins header validation on every reader:
// same column names in a different order is a schema mismatch, not data
// to silently mis-assign.
func TestCSVRejectsReorderedHeaders(t *testing.T) {
	swap := func(h []string) string {
		s := append([]string(nil), h...)
		s[0], s[1] = s[1], s[0]
		return strings.Join(s, ",") + "\n"
	}
	if _, err := ReadContractsCSV(strings.NewReader(swap(contractHeader))); err == nil {
		t.Error("reordered contract header accepted")
	}
	if _, err := ReadUsersCSV(strings.NewReader(swap(userHeader))); err == nil {
		t.Error("reordered user header accepted")
	}
}
