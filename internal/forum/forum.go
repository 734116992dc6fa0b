// Package forum models the HACK FORUMS marketplace entities the paper's
// dataset is built from: users, threads, posts, and contracts, including
// the full contract lifecycle state machine of the paper's Figure 14 with
// its 72-hour expiry rule, dispute-forces-public behaviour, and mutual
// completion marking.
package forum

import (
	"fmt"
	"time"
)

// UserID identifies a forum member.
type UserID int

// ThreadID identifies an advertising or discussion thread.
type ThreadID int

// ContractID identifies a marketplace contract.
type ContractID int

// ContractType enumerates the five observed contract types. SALE,
// PURCHASE, and VOUCH COPY are one-way; EXCHANGE and TRADE are
// bi-directional (both parties both give and receive).
type ContractType int

// The five contract types, in the paper's Table 1 order.
const (
	Sale ContractType = iota
	Purchase
	Exchange
	Trade
	VouchCopy
	NumContractTypes = 5
)

// ContractTypes lists all types in canonical order.
var ContractTypes = [NumContractTypes]ContractType{Sale, Purchase, Exchange, Trade, VouchCopy}

// String renders the type as the paper spells it.
func (t ContractType) String() string {
	switch t {
	case Sale:
		return "SALE"
	case Purchase:
		return "PURCHASE"
	case Exchange:
		return "EXCHANGE"
	case Trade:
		return "TRADE"
	case VouchCopy:
		return "VOUCH COPY"
	default:
		return fmt.Sprintf("ContractType(%d)", int(t))
	}
}

// Bidirectional reports whether goods flow both ways (EXCHANGE and TRADE).
func (t ContractType) Bidirectional() bool { return t == Exchange || t == Trade }

// ParseContractType inverts String (and accepts lowercase).
func ParseContractType(s string) (ContractType, error) {
	switch s {
	case "SALE", "sale":
		return Sale, nil
	case "PURCHASE", "purchase":
		return Purchase, nil
	case "EXCHANGE", "exchange":
		return Exchange, nil
	case "TRADE", "trade":
		return Trade, nil
	case "VOUCH COPY", "vouch copy", "VOUCH_COPY", "vouch_copy":
		return VouchCopy, nil
	}
	return 0, fmt.Errorf("forum: unknown contract type %q", s)
}

// Status enumerates the contract lifecycle states of Figure 14. The paper
// simplifies 'Complete' (one party marked) and 'Completed' (both marked)
// into a single Complete bucket for analysis; we keep both in the machine
// and collapse them in reporting.
type Status int

// The nine lifecycle states.
const (
	// StatusPending: created, awaiting the receiving party's decision.
	StatusPending Status = iota
	// StatusDenied: the receiving party declined the proposal.
	StatusDenied
	// StatusExpired: no decision within 72 hours of creation.
	StatusExpired
	// StatusActive: accepted; obligations in progress ("Active Deal").
	StatusActive
	// StatusMarkedComplete: one party has marked its obligations complete.
	StatusMarkedComplete
	// StatusCompleted: both parties marked complete; ratings may be left.
	StatusCompleted
	// StatusDisputed: either party opened a dispute; contract forced public.
	StatusDisputed
	// StatusCancelled: both parties agreed to cancel.
	StatusCancelled
	// StatusIncomplete: the deal lapsed without completion.
	StatusIncomplete
	NumStatuses = 9
)

// String renders the status in the paper's Table 1 vocabulary.
func (s Status) String() string {
	switch s {
	case StatusPending:
		return "Pending"
	case StatusDenied:
		return "Denied"
	case StatusExpired:
		return "Expired"
	case StatusActive:
		return "Active Deal"
	case StatusMarkedComplete:
		return "Complete (one side)"
	case StatusCompleted:
		return "Complete"
	case StatusDisputed:
		return "Disputed"
	case StatusCancelled:
		return "Cancelled"
	case StatusIncomplete:
		return "Incomplete"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// ExpiryWindow is the acceptance deadline: "the contract is marked as
// expired after 72 hours if no decision is made".
const ExpiryWindow = 72 * time.Hour

// Rating is a B-rating left after completion: +1, 0 (none), or -1.
type Rating int

// Rating values.
const (
	RatingNone     Rating = 0
	RatingPositive Rating = 1
	RatingNegative Rating = -1
)

// Party distinguishes the two sides of a contract.
type Party int

// The two contract parties.
const (
	MakerParty Party = iota
	TakerParty
)

// Contract is one marketplace contract. The zero value is not usable;
// construct with NewContract.
type Contract struct {
	ID     ContractID
	Type   ContractType
	Maker  UserID
	Taker  UserID
	Thread ThreadID // 0 when not linked to a thread

	Created   time.Time
	Decided   time.Time // accept/deny/expiry time; zero while pending
	Completed time.Time // both-parties-complete time; zero otherwise

	Status Status
	Public bool

	// Obligation free text, visible to researchers only on public
	// contracts; the simulator fills these and the dataset layer blanks
	// them for private contracts, mirroring the paper's visibility rules.
	MakerObligation string
	TakerObligation string

	// Ratings left by each side about the other after completion.
	MakerRating Rating // left BY the maker about the taker
	TakerRating Rating // left BY the taker about the maker

	// Optional on-chain evidence quoted in the contract details.
	BTCAddress string
	TxHash     string

	// markedBy tracks which side already marked completion while in
	// StatusMarkedComplete.
	markedBy Party
}

// NewContract creates a pending contract from maker to taker.
func NewContract(id ContractID, t ContractType, maker, taker UserID, created time.Time, public bool) (*Contract, error) {
	if maker == taker {
		return nil, fmt.Errorf("forum: contract %d has identical maker and taker %d", id, maker)
	}
	if maker <= 0 || taker <= 0 {
		return nil, fmt.Errorf("forum: contract %d has invalid party ids (%d, %d)", id, maker, taker)
	}
	return &Contract{
		ID:      id,
		Type:    t,
		Maker:   maker,
		Taker:   taker,
		Created: created,
		Status:  StatusPending,
		Public:  public,
	}, nil
}

func (c *Contract) transitionErr(action string) error {
	return fmt.Errorf("forum: contract %d cannot %s from status %s", c.ID, action, c.Status)
}

// Accept moves a pending contract to an active deal. Accepting after the
// 72-hour window is rejected — the contract should have expired.
func (c *Contract) Accept(at time.Time) error {
	if c.Status != StatusPending {
		return c.transitionErr("accept")
	}
	if at.Sub(c.Created) > ExpiryWindow {
		return fmt.Errorf("forum: contract %d acceptance at %v exceeds the 72h window", c.ID, at)
	}
	if at.Before(c.Created) {
		return fmt.Errorf("forum: contract %d accepted before creation", c.ID)
	}
	c.Status = StatusActive
	c.Decided = at
	return nil
}

// Deny declines a pending contract.
func (c *Contract) Deny(at time.Time) error {
	if c.Status != StatusPending {
		return c.transitionErr("deny")
	}
	if at.Before(c.Created) {
		return fmt.Errorf("forum: contract %d denied before creation", c.ID)
	}
	c.Status = StatusDenied
	c.Decided = at
	return nil
}

// Expire marks a pending contract expired; at must be past the 72h window.
func (c *Contract) Expire(at time.Time) error {
	if c.Status != StatusPending {
		return c.transitionErr("expire")
	}
	if at.Sub(c.Created) <= ExpiryWindow {
		return fmt.Errorf("forum: contract %d cannot expire before the 72h window", c.ID)
	}
	c.Status = StatusExpired
	c.Decided = c.Created.Add(ExpiryWindow)
	return nil
}

// MarkComplete records one party's completion. The first mark moves the
// contract to StatusMarkedComplete; the second (by the other party)
// finalises it as StatusCompleted.
func (c *Contract) MarkComplete(by Party, at time.Time) error {
	switch c.Status {
	case StatusActive:
		c.Status = StatusMarkedComplete
		c.markedBy = by
		return nil
	case StatusMarkedComplete:
		if c.markedBy == by {
			return fmt.Errorf("forum: contract %d already marked complete by the same party", c.ID)
		}
		c.Status = StatusCompleted
		c.Completed = at
		return nil
	default:
		return c.transitionErr("mark complete")
	}
}

// Dispute opens a dispute from an active, part-marked, or completed deal.
// Disputing forces the contract public regardless of prior visibility.
func (c *Contract) Dispute(at time.Time) error {
	switch c.Status {
	case StatusActive, StatusMarkedComplete, StatusCompleted:
		c.Status = StatusDisputed
		c.Public = true
		return nil
	default:
		return c.transitionErr("dispute")
	}
}

// Cancel cancels an active (or part-marked) deal by mutual agreement.
func (c *Contract) Cancel(at time.Time) error {
	switch c.Status {
	case StatusActive, StatusMarkedComplete:
		c.Status = StatusCancelled
		return nil
	default:
		return c.transitionErr("cancel")
	}
}

// MarkIncomplete closes an active (or part-marked) deal as unfulfilled.
func (c *Contract) MarkIncomplete(at time.Time) error {
	switch c.Status {
	case StatusActive, StatusMarkedComplete:
		c.Status = StatusIncomplete
		return nil
	default:
		return c.transitionErr("mark incomplete")
	}
}

// Rate records a post-completion B-rating by one party about the other.
func (c *Contract) Rate(by Party, r Rating) error {
	if c.Status != StatusCompleted && c.Status != StatusDisputed {
		return fmt.Errorf("forum: contract %d cannot be rated in status %s", c.ID, c.Status)
	}
	if by == MakerParty {
		c.MakerRating = r
	} else {
		c.TakerRating = r
	}
	return nil
}

// IsComplete reports whether the contract reached full completion
// (the paper's "Complete" bucket).
func (c *Contract) IsComplete() bool { return c.Status == StatusCompleted }

// CompletionTime returns the created→completed duration and whether a
// completion date is recorded (the paper notes ~70% of completed contracts
// carry one).
func (c *Contract) CompletionTime() (time.Duration, bool) {
	if c.Status != StatusCompleted || c.Completed.IsZero() {
		return 0, false
	}
	return c.Completed.Sub(c.Created), true
}

// User is a forum member with the activity counters the cold-start
// analysis consumes. The counters are maintained by the simulator as
// events occur; analyses treat them as observed data.
type User struct {
	ID         UserID
	Joined     time.Time // first forum activity
	FirstPost  time.Time // first post anywhere on the forum (zero if none)
	Posts      int       // posts across the whole forum
	MarketKind int       // latent behaviour class (simulator ground truth)

	MarketplacePosts int // posts within the marketplace section
	Reputation       int // forum reputation voting score
}

// Post is a message within a thread.
type Post struct {
	ID      int
	Thread  ThreadID
	Author  UserID
	Created time.Time
	// Marketplace marks posts made in the marketplace section, the
	// "MPosts" control variable of the cold-start models.
	Marketplace bool
}

// Thread is an advertising or discussion thread that contracts may link to.
type Thread struct {
	ID      ThreadID
	Author  UserID
	Created time.Time
	Title   string
}

// Statuses lists all lifecycle states in canonical order.
var Statuses = [NumStatuses]Status{
	StatusPending, StatusDenied, StatusExpired, StatusActive,
	StatusMarkedComplete, StatusCompleted, StatusDisputed,
	StatusCancelled, StatusIncomplete,
}

// ParseStatus inverts Status.String.
func ParseStatus(s string) (Status, error) {
	for _, st := range Statuses {
		if st.String() == s {
			return st, nil
		}
	}
	return 0, fmt.Errorf("forum: unknown status %q", s)
}
