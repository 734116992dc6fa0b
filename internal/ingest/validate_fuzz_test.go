package ingest

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"turnup/internal/dataset"
	"turnup/internal/forum"
)

// refValidateAgainst is the map-based validator ValidateAgainst replaced,
// kept as the reference its verdicts and error text are checked against:
// it builds a set of every contract ID in d instead of scanning the ID
// columns, and knows no pending batches, so callers hand it the corpus
// with those batches already applied.
func refValidateAgainst(b *Batch, d *dataset.Dataset) error {
	newUsers := make(map[forum.UserID]bool, len(b.Users))
	for _, u := range b.Users {
		if u.ID <= 0 {
			return fmt.Errorf("ingest: user id %d is not positive", u.ID)
		}
		if _, ok := d.Users[u.ID]; ok {
			return fmt.Errorf("ingest: user %d already exists in the dataset", u.ID)
		}
		if newUsers[u.ID] {
			return fmt.Errorf("ingest: user %d appears twice in the batch", u.ID)
		}
		newUsers[u.ID] = true
	}
	known := func(id forum.UserID) bool {
		if newUsers[id] {
			return true
		}
		_, ok := d.Users[id]
		return ok
	}
	existing := make(map[forum.ContractID]bool, len(d.Contracts))
	for _, c := range d.Contracts {
		existing[c.ID] = true
	}
	for _, c := range b.Contracts {
		if c.ID <= 0 {
			return fmt.Errorf("ingest: contract id %d is not positive", c.ID)
		}
		if existing[c.ID] {
			return fmt.Errorf("ingest: contract %d already exists in the dataset", c.ID)
		}
		existing[c.ID] = true
		if c.Maker == c.Taker {
			return fmt.Errorf("ingest: contract %d has identical maker and taker", c.ID)
		}
		if !known(c.Maker) {
			return fmt.Errorf("ingest: contract %d references unknown maker %d", c.ID, c.Maker)
		}
		if !known(c.Taker) {
			return fmt.Errorf("ingest: contract %d references unknown taker %d", c.ID, c.Taker)
		}
		if !dataset.InWindow(c.Created) {
			return fmt.Errorf("ingest: %w: contract %d created %v", dataset.ErrOutOfWindow, c.ID, c.Created)
		}
		if !c.Completed.IsZero() && c.Completed.Before(c.Created) {
			return fmt.Errorf("ingest: contract %d completed before creation", c.ID)
		}
		if !c.Public && (c.MakerObligation != "" || c.TakerObligation != "") {
			return fmt.Errorf("ingest: private contract %d leaks obligation text", c.ID)
		}
		if c.Status == forum.StatusDisputed && !c.Public {
			return fmt.Errorf("ingest: disputed contract %d is not public", c.ID)
		}
	}
	return nil
}

// pendingBatch is the fuzz fixture's not-yet-applied batch: users 3 and
// 4, and contracts 2 and 3 — one of them between two pending users, one
// between a pending and a corpus user.
func pendingBatch() *Batch {
	at := dataset.StableStart
	return &Batch{
		Users: []*forum.User{{ID: 3, Joined: at}, {ID: 4, Joined: at}},
		Contracts: []*forum.Contract{
			{ID: 2, Type: forum.Sale, Maker: 3, Taker: 4, Created: at, Status: forum.StatusCompleted, Public: true},
			{ID: 3, Type: forum.Exchange, Maker: 1, Taker: 3, Created: at.Add(time.Hour), Status: forum.StatusCompleted},
		},
	}
}

// merged returns d with the batches applied eagerly, built without Apply
// so the reference shares no code with the path under test.
func merged(d *dataset.Dataset, batches ...*Batch) *dataset.Dataset {
	m := &dataset.Dataset{Users: map[forum.UserID]*forum.User{}}
	for id, u := range d.Users {
		m.Users[id] = u
	}
	m.Contracts = append(m.Contracts, d.Contracts...)
	for _, b := range batches {
		for _, u := range b.Users {
			m.Users[u.ID] = u
		}
		m.Contracts = append(m.Contracts, b.Contracts...)
	}
	return m
}

// FuzzValidateAgainst decodes arbitrary NDJSON event bytes and validates
// the batch against a Head holding a fixture corpus plus a pending batch:
// the verdict and error text must equal the map-based reference's over
// the corpus with the pending batch applied, and the same holds when the
// batch is validated against that applied corpus directly. The seed
// corpus lives under testdata/fuzz/FuzzValidateAgainst.
func FuzzValidateAgainst(f *testing.F) {
	d := tinyDataset()
	pending := pendingBatch()
	applied := merged(d, pending)
	head := NewHead(d)
	if err := pending.ValidateAgainst(head); err != nil {
		f.Fatalf("fixture's pending batch rejected: %v", err)
	}
	head.Push(pending)
	f.Fuzz(func(t *testing.T, body []byte) {
		b, err := DecodeNDJSON(bytes.NewReader(body))
		if err != nil {
			return
		}
		same := func(what string, got, want error) {
			if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
				t.Fatalf("%s: ValidateAgainst = %v, reference = %v", what, got, want)
			}
		}
		want := refValidateAgainst(b, applied)
		same("head with a pending batch", b.ValidateAgainst(head), want)
		same("applied corpus", b.ValidateAgainst(applied), want)
	})
}
