package dataset

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadContractsCSV ensures malformed CSV never panics the loader: it
// must either parse or return an error.
func FuzzReadContractsCSV(f *testing.F) {
	var good bytes.Buffer
	d := seedDatasetF(f)
	if err := WriteContractsCSV(&good, d.Contracts); err != nil {
		f.Fatal(err)
	}
	f.Add(good.String())
	f.Add("id,type\n1,SALE\n")
	f.Add(strings.Join(contractHeader, ",") + "\nnot,enough,fields\n")
	f.Add("")
	f.Add(strings.Join(contractHeader, ",") + "\n" + strings.Repeat("x,", 15) + "x\n")
	f.Fuzz(func(t *testing.T, input string) {
		contracts, err := ReadContractsCSV(strings.NewReader(input))
		if err == nil {
			// Whatever parsed must be structurally sane.
			for _, c := range contracts {
				if c == nil {
					t.Fatal("nil contract parsed")
				}
			}
		}
	})
}

// seedDatasetF mirrors seedDataset for fuzz seeding (testing.F lacks the
// helper interface used by the test variant).
func seedDatasetF(f *testing.F) *Dataset {
	d := New()
	c, err := ReadContractsCSV(strings.NewReader(strings.Join(contractHeader, ",") + "\n"))
	if err != nil {
		f.Fatal(err)
	}
	d.Contracts = c
	return d
}

// FuzzDatasetRoundTrip is the format-equivalence property: any CSV pair
// the readers accept must survive CSV → columnar → binary → decode with
// its content digest — hence its canonical CSV bytes — unchanged. This is
// the invariant that lets the store admit either format and dedupe across
// them.
func FuzzDatasetRoundTrip(f *testing.F) {
	emptyContracts := strings.Join(contractHeader, ",") + "\n"
	emptyUsers := strings.Join(userHeader, ",") + "\n"
	f.Add(emptyContracts, emptyUsers)
	f.Add(
		emptyContracts+`7,SALE,1,2,0,2018-07-01T00:00:00Z,,,Pending,true,selling "x",paying $5,0,0,,`+"\n",
		emptyUsers+"1,2018-06-01T00:00:00Z,,0,0,0,0\n2,2018-06-02T03:04:05Z,2018-06-03T00:00:00Z,9,2,-4,1\n",
	)
	// Huge ratings, negative/zero user IDs, repeated obligation text.
	f.Add(
		emptyContracts+
			"1,EXCHANGE,-1,0,3,2019-04-01T12:00:00Z,2019-04-02T00:00:00Z,2019-04-03T00:00:00Z,Complete,true,swap btc,swap ltc,99999999999,-99999999999,addr,tx\n"+
			"2,TRADE,5,6,0,2020-03-12T00:00:00Z,,,Denied,false,,,0,0,,\n"+
			"3,SALE,5,6,0,2020-03-13T00:00:00Z,,,Pending,true,swap btc,swap ltc,0,0,,\n",
		emptyUsers+"-1,,,0,0,0,0\n0,,,1,1,1,1\n5,,,0,0,0,0\n6,,,0,0,0,0\n",
	)
	f.Fuzz(func(t *testing.T, contractsCSV, usersCSV string) {
		d, err := Read(strings.NewReader(contractsCSV), strings.NewReader(usersCSV))
		if err != nil {
			return // malformed input: rejection is the correct outcome
		}
		wantDigest, _ := d.Digest()
		var bin bytes.Buffer
		if err := d.EncodeBinary(&bin); err != nil {
			t.Fatalf("encoding accepted corpus: %v", err)
		}
		if int64(bin.Len()) != d.BinarySize() {
			t.Fatalf("encoded %d bytes, BinarySize says %d", bin.Len(), d.BinarySize())
		}
		got, err := DecodeBinary(&bin)
		if err != nil {
			t.Fatalf("decoding own encoding: %v", err)
		}
		gotDigest, _ := got.Digest()
		if gotDigest != wantDigest {
			t.Fatalf("digest changed across binary round trip: %s -> %s", wantDigest, gotDigest)
		}
		if len(got.Contracts) != len(d.Contracts) || len(got.Users) != len(d.Users) {
			t.Fatalf("round trip %d/%d contracts, %d/%d users",
				len(got.Contracts), len(d.Contracts), len(got.Users), len(d.Users))
		}
	})
}

// FuzzDecodeBinary feeds arbitrary bytes to the TUDS decoder — the
// payload of a binary upload and of the router's replication — which must
// never panic. Any input it accepts must re-encode and decode again to
// the same content digest: a corpus that decodes but cannot round-trip
// would be stored under one id and replicated under another.
func FuzzDecodeBinary(f *testing.F) {
	d, err := Read(
		strings.NewReader(strings.Join(contractHeader, ",")+"\n"+
			"1,EXCHANGE,-1,0,3,2019-04-01T12:00:00Z,2019-04-02T00:00:00Z,2019-04-03T00:00:00Z,Complete,true,swap btc,swap ltc,99999999999,-99999999999,addr,tx\n"+
			"2,TRADE,5,6,0,2020-03-12T00:00:00Z,,,Denied,false,,,0,0,,\n"+
			"3,SALE,5,6,0,2020-03-13T00:00:00Z,,,Pending,true,swap btc,swap ltc,0,0,,\n"),
		strings.NewReader(strings.Join(userHeader, ",")+"\n"+"-1,,,0,0,0,0\n0,,,1,1,1,1\n5,,,0,0,0,0\n6,,,0,0,0,0\n"),
	)
	if err != nil {
		f.Fatal(err)
	}
	var good bytes.Buffer
	if err := d.EncodeBinary(&good); err != nil {
		f.Fatal(err)
	}
	if _, err := DecodeBinary(bytes.NewReader(good.Bytes())); err != nil {
		f.Fatalf("seed encoding rejected: %v", err)
	}
	f.Add(good.Bytes())
	f.Add(good.Bytes()[:headerLen])
	f.Add(good.Bytes()[:good.Len()/2])
	f.Fuzz(func(t *testing.T, raw []byte) {
		first, err := DecodeBinary(bytes.NewReader(raw))
		if err != nil {
			return // malformed input: rejection is the correct outcome
		}
		want, _ := first.Digest()
		var bin bytes.Buffer
		if err := first.EncodeBinary(&bin); err != nil {
			t.Fatalf("re-encoding an accepted binary: %v", err)
		}
		second, err := DecodeBinary(&bin)
		if err != nil {
			t.Fatalf("decoding the re-encoding of an accepted binary: %v", err)
		}
		if got, _ := second.Digest(); got != want {
			t.Fatalf("digest changed across re-encoding: %s -> %s", want, got)
		}
	})
}
