package forum

import (
	"testing"
	"time"
)

var c0 = time.Date(2019, 4, 1, 9, 0, 0, 0, time.UTC)

func newTestContract(t *testing.T, typ ContractType, public bool) *Contract {
	t.Helper()
	c, err := NewContract(1, typ, 10, 20, c0, public)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewContractValidation(t *testing.T) {
	if _, err := NewContract(1, Sale, 5, 5, c0, true); err == nil {
		t.Error("identical maker/taker accepted")
	}
	if _, err := NewContract(1, Sale, 0, 5, c0, true); err == nil {
		t.Error("zero maker accepted")
	}
	if _, err := NewContract(1, Sale, 5, -1, c0, true); err == nil {
		t.Error("negative taker accepted")
	}
}

func TestHappyPathToCompleted(t *testing.T) {
	c := newTestContract(t, Exchange, true)
	if c.Status != StatusPending {
		t.Fatalf("initial status %v", c.Status)
	}
	if err := c.Accept(c0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if c.Status != StatusActive || !c.Decided.Equal(c0.Add(time.Hour)) {
		t.Fatalf("after accept: %v decided %v", c.Status, c.Decided)
	}
	if err := c.MarkComplete(MakerParty, c0.Add(2*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if c.Status != StatusMarkedComplete {
		t.Fatalf("after first mark: %v", c.Status)
	}
	if err := c.MarkComplete(TakerParty, c0.Add(3*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if !c.IsComplete() {
		t.Fatal("not complete after both marks")
	}
	d, ok := c.CompletionTime()
	if !ok || d != 3*time.Hour {
		t.Fatalf("completion time = %v, %v", d, ok)
	}
}

func TestDoubleMarkBySamePartyRejected(t *testing.T) {
	c := newTestContract(t, Sale, true)
	if err := c.Accept(c0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := c.MarkComplete(MakerParty, c0.Add(2*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := c.MarkComplete(MakerParty, c0.Add(3*time.Hour)); err == nil {
		t.Fatal("same party marked complete twice")
	}
}

func TestDeny(t *testing.T) {
	c := newTestContract(t, Purchase, false)
	if err := c.Deny(c0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if c.Status != StatusDenied {
		t.Fatalf("after deny: %v", c.Status)
	}
	if err := c.Accept(c0.Add(2 * time.Hour)); err == nil {
		t.Fatal("accepted a denied contract")
	}
}

func TestExpiryWindowEnforced(t *testing.T) {
	c := newTestContract(t, Sale, false)
	// Too early to expire.
	if err := c.Expire(c0.Add(71 * time.Hour)); err == nil {
		t.Fatal("expired before 72h")
	}
	// Too late to accept.
	if err := c.Accept(c0.Add(73 * time.Hour)); err == nil {
		t.Fatal("accepted after 72h")
	}
	if err := c.Expire(c0.Add(73 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	if c.Status != StatusExpired {
		t.Fatalf("status %v", c.Status)
	}
	if !c.Decided.Equal(c0.Add(72 * time.Hour)) {
		t.Errorf("expiry decided time = %v", c.Decided)
	}
}

func TestAcceptBeforeCreationRejected(t *testing.T) {
	c := newTestContract(t, Sale, false)
	if err := c.Accept(c0.Add(-time.Hour)); err == nil {
		t.Fatal("accepted before creation")
	}
	if err := c.Deny(c0.Add(-time.Hour)); err == nil {
		t.Fatal("denied before creation")
	}
}

func TestDisputeForcesPublic(t *testing.T) {
	c := newTestContract(t, Exchange, false) // private
	if err := c.Accept(c0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := c.Dispute(c0.Add(5 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	if !c.Public {
		t.Fatal("dispute did not force the contract public")
	}
	if c.Status != StatusDisputed {
		t.Fatalf("status %v", c.Status)
	}
}

func TestDisputeFromCompleted(t *testing.T) {
	c := newTestContract(t, Sale, true)
	_ = c.Accept(c0.Add(time.Hour))
	_ = c.MarkComplete(MakerParty, c0.Add(2*time.Hour))
	_ = c.MarkComplete(TakerParty, c0.Add(3*time.Hour))
	if err := c.Dispute(c0.Add(4 * time.Hour)); err != nil {
		t.Fatalf("dispute from completed: %v", err)
	}
}

func TestCancelAndIncomplete(t *testing.T) {
	c := newTestContract(t, Trade, true)
	_ = c.Accept(c0.Add(time.Hour))
	if err := c.Cancel(c0.Add(2 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	if c.Status != StatusCancelled {
		t.Fatalf("status %v", c.Status)
	}

	c2 := newTestContract(t, Trade, true)
	_ = c2.Accept(c0.Add(time.Hour))
	_ = c2.MarkComplete(TakerParty, c0.Add(2*time.Hour))
	if err := c2.MarkIncomplete(c0.Add(80 * time.Hour)); err != nil {
		t.Fatal(err)
	}
	if c2.Status != StatusIncomplete {
		t.Fatalf("status %v", c2.Status)
	}
}

func TestIllegalTransitionsFromTerminal(t *testing.T) {
	c := newTestContract(t, Sale, true)
	_ = c.Deny(c0.Add(time.Hour))
	for name, f := range map[string]func() error{
		"Accept":         func() error { return c.Accept(c0.Add(2 * time.Hour)) },
		"Deny":           func() error { return c.Deny(c0.Add(2 * time.Hour)) },
		"Expire":         func() error { return c.Expire(c0.Add(80 * time.Hour)) },
		"MarkComplete":   func() error { return c.MarkComplete(MakerParty, c0) },
		"Dispute":        func() error { return c.Dispute(c0) },
		"Cancel":         func() error { return c.Cancel(c0) },
		"MarkIncomplete": func() error { return c.MarkIncomplete(c0) },
	} {
		if err := f(); err == nil {
			t.Errorf("%s allowed from terminal status", name)
		}
	}
}

func TestRating(t *testing.T) {
	c := newTestContract(t, Sale, true)
	if err := c.Rate(MakerParty, RatingPositive); err == nil {
		t.Fatal("rated a pending contract")
	}
	_ = c.Accept(c0.Add(time.Hour))
	_ = c.MarkComplete(MakerParty, c0.Add(2*time.Hour))
	_ = c.MarkComplete(TakerParty, c0.Add(3*time.Hour))
	if err := c.Rate(MakerParty, RatingPositive); err != nil {
		t.Fatal(err)
	}
	if err := c.Rate(TakerParty, RatingNegative); err != nil {
		t.Fatal(err)
	}
	if c.MakerRating != RatingPositive || c.TakerRating != RatingNegative {
		t.Errorf("ratings = %v, %v", c.MakerRating, c.TakerRating)
	}
}

func TestTypeStringRoundTrip(t *testing.T) {
	for _, typ := range ContractTypes {
		got, err := ParseContractType(typ.String())
		if err != nil || got != typ {
			t.Errorf("round trip %v: %v, %v", typ, got, err)
		}
	}
	if _, err := ParseContractType("GIFT"); err == nil {
		t.Error("unknown type parsed")
	}
}

func TestBidirectional(t *testing.T) {
	want := map[ContractType]bool{
		Sale: false, Purchase: false, Exchange: true, Trade: true, VouchCopy: false,
	}
	for typ, w := range want {
		if typ.Bidirectional() != w {
			t.Errorf("%v bidirectional = %v", typ, typ.Bidirectional())
		}
	}
}

// TestStateMachineExactTransitionSet exhaustively checks that exactly the
// legal transitions of Figure 14 are allowed from every status. This is
// the property backing the "Figure 14" experiment entry in DESIGN.md.
func TestStateMachineExactTransitionSet(t *testing.T) {
	type action struct {
		name string
		run  func(*Contract) error
	}
	actions := []action{
		{"Accept", func(c *Contract) error { return c.Accept(c.Created.Add(time.Hour)) }},
		{"Deny", func(c *Contract) error { return c.Deny(c.Created.Add(time.Hour)) }},
		{"Expire", func(c *Contract) error { return c.Expire(c.Created.Add(80 * time.Hour)) }},
		{"MarkComplete", func(c *Contract) error { return c.MarkComplete(TakerParty, c.Created.Add(time.Hour)) }},
		{"Dispute", func(c *Contract) error { return c.Dispute(c.Created.Add(time.Hour)) }},
		{"Cancel", func(c *Contract) error { return c.Cancel(c.Created.Add(time.Hour)) }},
		{"MarkIncomplete", func(c *Contract) error { return c.MarkIncomplete(c.Created.Add(time.Hour)) }},
	}
	legal := map[Status]map[string]bool{
		StatusPending:        {"Accept": true, "Deny": true, "Expire": true},
		StatusActive:         {"MarkComplete": true, "Dispute": true, "Cancel": true, "MarkIncomplete": true},
		StatusMarkedComplete: {"MarkComplete": true, "Dispute": true, "Cancel": true, "MarkIncomplete": true},
		StatusCompleted:      {"Dispute": true},
		StatusDenied:         {},
		StatusExpired:        {},
		StatusDisputed:       {},
		StatusCancelled:      {},
		StatusIncomplete:     {},
	}
	// reach drives a fresh contract into the target status.
	reach := func(s Status) *Contract {
		c := newTestContract(t, Sale, true)
		switch s {
		case StatusPending:
		case StatusDenied:
			_ = c.Deny(c0.Add(time.Hour))
		case StatusExpired:
			_ = c.Expire(c0.Add(80 * time.Hour))
		case StatusActive:
			_ = c.Accept(c0.Add(time.Hour))
		case StatusMarkedComplete:
			_ = c.Accept(c0.Add(time.Hour))
			_ = c.MarkComplete(MakerParty, c0.Add(2*time.Hour))
		case StatusCompleted:
			_ = c.Accept(c0.Add(time.Hour))
			_ = c.MarkComplete(MakerParty, c0.Add(2*time.Hour))
			_ = c.MarkComplete(TakerParty, c0.Add(3*time.Hour))
		case StatusDisputed:
			_ = c.Accept(c0.Add(time.Hour))
			_ = c.Dispute(c0.Add(2 * time.Hour))
		case StatusCancelled:
			_ = c.Accept(c0.Add(time.Hour))
			_ = c.Cancel(c0.Add(2 * time.Hour))
		case StatusIncomplete:
			_ = c.Accept(c0.Add(time.Hour))
			_ = c.MarkIncomplete(c0.Add(2 * time.Hour))
		}
		if c.Status != s {
			t.Fatalf("could not reach status %v (got %v)", s, c.Status)
		}
		return c
	}
	for s, allowed := range legal {
		for _, a := range actions {
			c := reach(s)
			err := a.run(c)
			if allowed[a.name] && err != nil {
				t.Errorf("%v: legal action %s rejected: %v", s, a.name, err)
			}
			if !allowed[a.name] && err == nil {
				t.Errorf("%v: illegal action %s allowed", s, a.name)
			}
		}
	}
}

func TestCompletionTimeMissingDate(t *testing.T) {
	c := newTestContract(t, Sale, true)
	_ = c.Accept(c0.Add(time.Hour))
	_ = c.MarkComplete(MakerParty, c0.Add(2*time.Hour))
	_ = c.MarkComplete(TakerParty, c0.Add(3*time.Hour))
	c.Completed = time.Time{} // the ~30% of completed contracts without a date
	if _, ok := c.CompletionTime(); ok {
		t.Error("CompletionTime reported a missing date")
	}
	if !c.IsComplete() {
		t.Error("contract no longer complete after clearing the date")
	}
}
