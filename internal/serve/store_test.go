package serve

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"turnup"
	"turnup/internal/dataset"
	"turnup/internal/forum"
	"turnup/internal/ingest"
	"turnup/internal/obs"
)

var (
	storeOnce sync.Once
	storeBase *turnup.Dataset
	storeErr  error
)

// storeVariants returns n distinct small corpora, largest first: the same
// generated corpus with 0, 1, 2, … trailing contracts dropped.
func storeVariants(t *testing.T, n int) []*turnup.Dataset {
	t.Helper()
	storeOnce.Do(func() { storeBase, storeErr = turnup.Generate(turnup.Config{Seed: 7, Scale: 0.01}) })
	if storeErr != nil {
		t.Fatal(storeErr)
	}
	out := make([]*turnup.Dataset, n)
	for i := range out {
		out[i] = &turnup.Dataset{
			Users: storeBase.Users, Threads: storeBase.Threads, Posts: storeBase.Posts,
			Contracts: storeBase.Contracts[:len(storeBase.Contracts)-i], Ledger: storeBase.Ledger,
		}
	}
	return out
}

// storeBatch is a one-contract batch whose maker is maker; it validates
// against any variant only when the batch also adds that user.
func storeBatch(maker forum.UserID, addMaker bool) *ingest.Batch {
	b := &ingest.Batch{Contracts: []*forum.Contract{{
		ID: 900001, Type: forum.Exchange, Maker: maker, Taker: 1, Thread: 1,
		Created: dataset.CovidStart.Add(24 * time.Hour), Completed: dataset.CovidStart.Add(25 * time.Hour),
		Status: forum.StatusCompleted, Public: true,
		MakerObligation: "btc", TakerObligation: "paypal",
	}}}
	if addMaker {
		b.Users = []*forum.User{{ID: maker, Joined: dataset.CovidStart}}
	}
	return b
}

func mustAdd(t *testing.T, s *Store, d *turnup.Dataset) DatasetInfo {
	t.Helper()
	info, created, err := s.Add(d)
	if err != nil || !created {
		t.Fatalf("Add: created=%t err=%v", created, err)
	}
	return info
}

// TestStoreEvictsByBytes: an Add past the byte bound evicts the least
// recently used dataset while the count bound is far off.
func TestStoreEvictsByBytes(t *testing.T) {
	ds := storeVariants(t, 3)
	reg := obs.NewRegistry()
	st := NewStore(100, ds[0].BinarySize()+ds[1].BinarySize()+ds[2].BinarySize()-1, reg)
	infos := []DatasetInfo{mustAdd(t, st, ds[0]), mustAdd(t, st, ds[1]), mustAdd(t, st, ds[2])}

	if st.Len() != 2 {
		t.Fatalf("store holds %d datasets, want 2", st.Len())
	}
	if _, ok := st.Info(infos[0].ID); ok {
		t.Fatal("the least recently used dataset survived a byte-bound eviction")
	}
	if got := reg.Counter("serve_datasets_evictions_total").Value(); got != 1 {
		t.Fatalf("serve_datasets_evictions_total=%d, want 1", got)
	}
	want := infos[1].Bytes + infos[2].Bytes
	if got := reg.Gauge("serve_datasets_bytes").Value(); got != float64(want) {
		t.Fatalf("serve_datasets_bytes=%g, want %d", got, want)
	}
}

// TestStoreEvictionForgetsDigests: evicting an appended dataset forgets
// both its root and head digests, so re-uploading the root bytes creates
// a fresh entry (201 at the HTTP layer) at generation 1.
func TestStoreEvictionForgetsDigests(t *testing.T) {
	ds := storeVariants(t, 2)
	st := NewStore(1, 0, obs.NewRegistry())
	info := mustAdd(t, st, ds[0])
	if _, err := st.Append(info.ID, storeBatch(900001, true)); err != nil {
		t.Fatal(err)
	}
	mustAdd(t, st, ds[1]) // evicts the appended dataset
	if len(st.byDigest) != 1 {
		t.Fatalf("digest index holds %d digests after eviction, want only the survivor's", len(st.byDigest))
	}
	again := mustAdd(t, st, ds[0])
	if again.ID != info.ID || again.Generation != 1 {
		t.Fatalf("re-upload = %s at generation %d, want %s at generation 1", again.ID, again.Generation, info.ID)
	}
}

// TestStoreOnDropOncePerEviction: the drop callback fires exactly once
// for every id that leaves, including two evicted by one Add, and once
// for a DELETE.
func TestStoreOnDropOncePerEviction(t *testing.T) {
	ds := storeVariants(t, 4)
	// Room for variants 1–3; adding the largest, variant 0, must evict
	// both 1 and 2 before the byte bound holds again.
	st := NewStore(10, ds[1].BinarySize()+ds[2].BinarySize()+ds[3].BinarySize(), obs.NewRegistry())
	var dropped []string
	st.OnDrop(func(id string) { dropped = append(dropped, id) })
	var infos []DatasetInfo
	for _, d := range []*turnup.Dataset{ds[1], ds[2], ds[3], ds[0]} {
		infos = append(infos, mustAdd(t, st, d))
	}
	if !st.Delete(infos[3].ID) || st.Delete(infos[3].ID) {
		t.Fatal("Delete should succeed once, then report the id gone")
	}
	want := []string{infos[0].ID, infos[1].ID, infos[3].ID}
	if !slices.Equal(dropped, want) {
		t.Fatalf("OnDrop fired for %v, want %v", dropped, want)
	}
}

// TestStoreRejectedAppendKeepsVictim: appends refused for an unknown user
// or for the byte bound do not refresh the dataset's recency, so it stays
// the next eviction victim.
func TestStoreRejectedAppendKeepsVictim(t *testing.T) {
	ds := storeVariants(t, 3)
	st := NewStore(2, ds[0].BinarySize()+ds[1].BinarySize()+8, obs.NewRegistry())
	var dropped []string
	st.OnDrop(func(id string) { dropped = append(dropped, id) })
	victim := mustAdd(t, st, ds[0])
	kept := mustAdd(t, st, ds[1])

	if _, err := st.Append(victim.ID, storeBatch(999999, false)); err == nil {
		t.Fatal("append naming an unknown user validated")
	}
	if _, err := st.Append(victim.ID, storeBatch(900001, true)); !errors.Is(err, ErrStoreFull) {
		t.Fatalf("append past the byte bound: err=%v, want ErrStoreFull", err)
	}
	mustAdd(t, st, ds[2])
	if !slices.Equal(dropped, []string{victim.ID}) {
		t.Fatalf("evicted %v, want the refused dataset %s", dropped, victim.ID)
	}
	if _, ok := st.Info(kept.ID); !ok {
		t.Fatal("the more recently used dataset was evicted")
	}
}
