// Tests for the store's deferred derivation: an append records a batch
// at O(batch) cost, and the first read of a generation derives its corpus
// and Index. Against an eager reference chain that applies each batch at
// once, every generation must list, encode and render identically, and
// every rejection must read the same, however reads and appends
// interleave; and a pinned snapshot must stay untouched while appends and
// derivations run beside it.
package serve_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"turnup"
	"turnup/internal/dataset"
	"turnup/internal/forum"
	"turnup/internal/ingest"
	"turnup/internal/obs"
	"turnup/internal/serve"
)

// eagerGen is one generation of the reference chain.
type eagerGen struct {
	info serve.DatasetInfo
	d    *turnup.Dataset
	ix   *turnup.Index
}

// eagerChain is the reference the store is checked against: each
// accepted batch is applied at once with ingest.Apply and Index.Append,
// and its listing entry is computed from the applied corpus.
type eagerChain struct {
	maxBytes int64
	gens     []eagerGen // gens[g-1] is generation g
}

func (c *eagerChain) append(b *ingest.Batch) (serve.DatasetInfo, error) {
	cur := c.gens[len(c.gens)-1]
	if err := b.ValidateAgainst(cur.d); err != nil {
		return serve.DatasetInfo{}, err
	}
	nd := ingest.Apply(cur.d, b)
	grow := nd.BinarySize() - cur.info.Bytes
	if cur.info.Bytes+grow > c.maxBytes {
		return serve.DatasetInfo{}, fmt.Errorf("%w: append of %d binary bytes exceeds the bound of %d", serve.ErrStoreFull, grow, c.maxBytes)
	}
	var contracts, users bytes.Buffer
	if err := ingest.WriteBatchContractsCSV(&contracts, b.Contracts); err != nil {
		return serve.DatasetInfo{}, err
	}
	if err := ingest.WriteBatchUsersCSV(&users, b.Users); err != nil {
		return serve.DatasetInfo{}, err
	}
	h := sha256.New()
	h.Write([]byte(cur.info.Digest))
	h.Write(contracts.Bytes())
	h.Write(users.Bytes())
	info := cur.info
	info.Digest = hex.EncodeToString(h.Sum(nil))
	info.Users = len(nd.Users)
	info.Contracts = len(nd.Contracts)
	info.Bytes = nd.BinarySize()
	info.Generation++
	c.gens = append(c.gens, eagerGen{info: info, d: nd, ix: cur.ix.Append(nd, b.Contracts)})
	return info, nil
}

// renderCorpus runs the descriptive suite over d with ix and renders
// every section.
func renderCorpus(t *testing.T, d *turnup.Dataset, ix *turnup.Index) string {
	t.Helper()
	res, err := turnup.Run(d, turnup.RunOptions{Seed: 1, SkipModels: true, Index: ix})
	if err != nil {
		t.Fatal(err)
	}
	return turnup.RenderAll(res)
}

// encodeCorpus returns d's TUDS encoding.
func encodeCorpus(t *testing.T, d *turnup.Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// liveStep is one scripted append; reject names a fragment of the error
// it must fail with ("" for a batch that is accepted).
type liveStep struct {
	name   string
	batch  *ingest.Batch
	reject string
}

// liveScript builds the scripted batch sequence over d: in-order and
// out-of-order contracts, a CSV batch with no users, contracts whose
// parties a still-pending batch introduced, a user-only batch, and the
// four rejections — a duplicate user and a duplicate contract against
// pending state, an unknown user, and a batch past the byte bound.
func liveScript(t *testing.T, d *turnup.Dataset) []liveStep {
	t.Helper()
	var known []forum.UserID
	for id := range d.Users {
		known = append(known, id)
	}
	sort.Slice(known, func(i, j int) bool { return known[i] < known[j] })
	k1, k2 := known[0], known[1]
	late := ingest.MaxCreated(d)
	early := dataset.StableStart.Add(48 * time.Hour)
	at := func(minutes int) time.Time { return late.Add(time.Duration(minutes) * time.Minute) }
	contract := func(id int, maker, taker forum.UserID, created time.Time, text string) *forum.Contract {
		return &forum.Contract{
			ID: forum.ContractID(9_100_000 + id), Type: forum.Exchange, Maker: maker, Taker: taker, Thread: 1,
			Created: created, Completed: created.Add(30 * time.Minute), Status: forum.StatusCompleted, Public: true,
			MakerObligation: text, TakerObligation: "paypal transfer",
		}
	}
	user := func(id int) *forum.User {
		return &forum.User{ID: forum.UserID(8_100_000 + id), Joined: late, FirstPost: late, Posts: 1}
	}
	u1, u2, u3, u4 := user(1), user(2), user(3), user(4)

	var csvBody bytes.Buffer
	if err := ingest.WriteBatchContractsCSV(&csvBody, []*forum.Contract{
		contract(6, k1, u1.ID, at(4), "btc"),
		contract(7, k2, k1, at(5), "selling $25 amazon giftcard, btc only"),
	}); err != nil {
		t.Fatal(err)
	}
	csvBatch, err := ingest.DecodeBatch("text/csv", &csvBody)
	if err != nil {
		t.Fatal(err)
	}
	big := &ingest.Batch{}
	for i := 0; i < 200; i++ {
		big.Contracts = append(big.Contracts, contract(1000+i, k1, k2, at(10), fmt.Sprintf("bulk order %d of steam keys", i)))
	}

	return []liveStep{
		{name: "in-order", batch: &ingest.Batch{Users: []*forum.User{u1, u2}, Contracts: []*forum.Contract{contract(1, u1.ID, u2.ID, at(1), "btc")}}},
		{name: "pending parties", batch: &ingest.Batch{Users: []*forum.User{u3}, Contracts: []*forum.Contract{
			contract(2, u3.ID, k1, at(2), "paypal"),
			contract(3, u1.ID, k2, at(3), "selling $25 amazon giftcard, btc only"),
		}}},
		{name: "out-of-order", batch: &ingest.Batch{Contracts: []*forum.Contract{
			contract(4, u2.ID, u3.ID, early, "btc"),
			contract(5, k1, u2.ID, at(3), "eth"),
		}}},
		{name: "csv without users", batch: csvBatch},
		{name: "duplicate pending user", batch: &ingest.Batch{Users: []*forum.User{u2}}, reject: "already exists"},
		{name: "duplicate pending contract", batch: &ingest.Batch{Users: []*forum.User{user(9)}, Contracts: []*forum.Contract{
			contract(1, user(9).ID, k1, at(6), "btc"),
		}}, reject: "already exists"},
		{name: "unknown user", batch: &ingest.Batch{Contracts: []*forum.Contract{contract(8, 7_777_777, k1, at(6), "btc")}}, reject: "unknown maker"},
		{name: "user only", batch: &ingest.Batch{Users: []*forum.User{u4}}},
		{name: "past the byte bound", batch: big, reject: serve.ErrStoreFull.Error()},
		{name: "pending user's contract", batch: &ingest.Batch{Contracts: []*forum.Contract{contract(9, u4.ID, u2.ID, at(7), "skrill")}}},
		{name: "mixed order", batch: &ingest.Batch{Contracts: []*forum.Contract{
			contract(10, u1.ID, u3.ID, at(8), "btc"),
			contract(11, u4.ID, k2, early.Add(time.Hour), "paypal"),
		}}},
	}
}

// TestDeferredDerivationMatchesEagerChain runs the scripted batches
// through the store with reads after every batch, only at the end, and
// at two points in between. Every append must answer the reference
// chain's listing entry or its exact error, and every read must match the
// reference generation: listing entry, TUDS bytes (whose length is
// info.Bytes), and rendered report. The derivations counter must count
// exactly the reads that found new generations.
func TestDeferredDerivationMatchesEagerChain(t *testing.T) {
	d := tinyDataset(t)
	steps := liveScript(t, d)
	last := len(steps) - 1
	maxBytes := d.BinarySize() + 8<<10

	// The reference chain and its renders are the same for every
	// schedule, so they are built once. Generation 1 is what Add lists.
	refInfo, _, err := serve.NewStore(1, maxBytes, obs.NewRegistry()).Add(d)
	if err != nil {
		t.Fatal(err)
	}
	ref := &eagerChain{maxBytes: maxBytes, gens: []eagerGen{{info: refInfo, d: d, ix: turnup.NewIndex(d)}}}
	type outcome struct {
		info serve.DatasetInfo
		err  error
	}
	var want []outcome
	for _, st := range steps {
		info, err := ref.append(st.batch)
		if (err == nil) != (st.reject == "") || (err != nil && !strings.Contains(err.Error(), st.reject)) {
			t.Fatalf("reference step %q: err = %v, want rejection %q", st.name, err, st.reject)
		}
		want = append(want, outcome{info, err})
	}
	refRenders := map[uint64]string{}
	refGen := func(g uint64) (eagerGen, string) {
		gen := ref.gens[g-1]
		if _, ok := refRenders[g]; !ok {
			refRenders[g] = renderCorpus(t, gen.d, gen.ix)
		}
		return gen, refRenders[g]
	}

	schedules := map[string]func(step int) bool{
		"every":   func(int) bool { return true },
		"end":     func(step int) bool { return step == last },
		"between": func(step int) bool { return step == 2 || step == 7 || step == last },
	}
	for name, readAfter := range schedules {
		t.Run(name, func(t *testing.T) {
			reg := obs.NewRegistry()
			st := serve.NewStore(4, maxBytes, reg)
			info, _, err := st.Add(d)
			if err != nil || info != refInfo {
				t.Fatalf("Add = %+v, %v; want %+v", info, err, refInfo)
			}
			derived, derivations := uint64(1), int64(0)
			for i, step := range steps {
				got, err := st.Append(info.ID, step.batch)
				if w := want[i]; fmt.Sprint(err) != fmt.Sprint(w.err) || got != w.info {
					t.Fatalf("step %q: Append = %+v, %v; reference %+v, %v", step.name, got, err, w.info, w.err)
				}
				if w := want[i].err; w != nil && errors.Is(w, serve.ErrStoreFull) != errors.Is(err, serve.ErrStoreFull) {
					t.Fatalf("step %q: store error %v does not match ErrStoreFull like the reference's", step.name, err)
				}
				if !readAfter(i) {
					continue
				}
				snap, ok := st.Snapshot(info.ID)
				if !ok {
					t.Fatalf("step %q: snapshot missing", step.name)
				}
				gen, report := refGen(snap.Info.Generation)
				if snap.Info != gen.info {
					t.Fatalf("step %q: snapshot info %+v, reference %+v", step.name, snap.Info, gen.info)
				}
				bin := encodeCorpus(t, snap.D)
				if !bytes.Equal(bin, encodeCorpus(t, gen.d)) {
					t.Fatalf("step %q: generation %d encodes differently from the reference", step.name, snap.Info.Generation)
				}
				if int64(len(bin)) != snap.Info.Bytes {
					t.Fatalf("step %q: encoded %d bytes, info.Bytes %d", step.name, len(bin), snap.Info.Bytes)
				}
				if renderCorpus(t, snap.D, snap.Ix) != report {
					t.Fatalf("step %q: generation %d renders differently from the reference", step.name, snap.Info.Generation)
				}
				if snap.Info.Generation > derived {
					derived = snap.Info.Generation
					derivations++
				}
			}
			if n := reg.Counter("serve_datasets_derivations_total").Value(); n != derivations {
				t.Fatalf("serve_datasets_derivations_total = %d, want %d", n, derivations)
			}
		})
	}
}

// TestPinnedSnapshotIsolatedFromAppends pins a derived generation and
// renders it repeatedly while 50 appends land and another goroutine keeps
// reading — so deriving — the head. The pinned report and encoding must
// not change; run it under -race.
func TestPinnedSnapshotIsolatedFromAppends(t *testing.T) {
	d := tinyDataset(t)
	st := serve.NewStore(4, 0, obs.NewRegistry())
	info, _, err := st.Add(d)
	if err != nil {
		t.Fatal(err)
	}
	base := ingest.MaxCreated(d)
	at := func(i int) time.Time { return base.Add(time.Duration(i) * time.Second) }
	if _, err := st.Append(info.ID, liveBatch(1, at(1))); err != nil {
		t.Fatal(err)
	}
	pinned, ok := st.Snapshot(info.ID)
	if !ok || pinned.Info.Generation != 2 {
		t.Fatalf("pinned snapshot ok=%t, want generation 2", ok)
	}
	want := renderCorpus(t, pinned.D, pinned.Ix)
	wantBin := encodeCorpus(t, pinned.D)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 2; i <= 51; i++ {
			if _, err := st.Append(info.ID, liveBatch(i, at(i))); err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for {
			snap, ok := st.Snapshot(info.ID)
			if !ok {
				t.Error("head snapshot missing")
				return
			}
			if n := len(snap.Ix.Completed()); n == 0 {
				t.Error("derived head has no completed contracts")
				return
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if renderCorpus(t, pinned.D, pinned.Ix) != want {
			t.Error("pinned generation's report changed while appends landed")
			break
		}
	}
	wg.Wait()
	if !bytes.Equal(encodeCorpus(t, pinned.D), wantBin) || pinned.Info.Generation != 2 {
		t.Fatal("pinned generation's corpus changed while appends landed")
	}
	head, _ := st.Snapshot(info.ID)
	if head.Info.Generation != 52 || len(head.D.Contracts) != len(d.Contracts)+51 {
		t.Fatalf("head generation %d with %d contracts, want 52 with %d", head.Info.Generation, len(head.D.Contracts), len(d.Contracts)+51)
	}
}
