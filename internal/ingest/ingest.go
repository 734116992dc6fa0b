// Package ingest turns the frozen-corpus pipeline into a stream consumer:
// it decodes contract/user event batches (JSON lines or CSV rows), validates
// them against the dataset they extend, and applies them copy-on-write so a
// report run holding the previous snapshot never observes a mutation. It
// also implements the time-window views (?window=, ?as-of=) that make
// era-to-date and trailing-window reports possible over a growing corpus.
// See DESIGN.md §3.7.
package ingest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"time"

	"turnup/internal/dataset"
	"turnup/internal/forum"
)

// Batch is one decoded event batch: zero or more new users followed by
// zero or more new contracts. Contracts may reference users from the same
// batch or users already present in the dataset being extended. A batch
// is immutable once decoded: its columnar block is built once and shared
// by every generation that includes it.
type Batch struct {
	Users     []*forum.User
	Contracts []*forum.Contract

	blockOnce sync.Once
	block     *dataset.Block
}

// Len reports the number of events in the batch.
func (b *Batch) Len() int { return len(b.Users) + len(b.Contracts) }

// Block returns the batch's contracts as one columnar block, built on the
// first call: the block an applied generation's projection gains for
// this batch (see Apply).
func (b *Batch) Block() *dataset.Block {
	b.blockOnce.Do(func() { b.block = dataset.BuildBlock(b.Contracts) })
	return b.block
}

// BinarySize returns how many bytes applying the batch adds to the
// extended dataset's BinarySize: its contract block plus its user rows.
// Exact for a batch that ValidateAgainst accepted (every user is new).
func (b *Batch) BinarySize() int64 {
	return b.Block().BinarySize() + dataset.UsersBinarySize(len(b.Users))
}

// ErrUnsupportedEvents marks an event body whose Content-Type is neither
// JSON lines nor CSV.
var ErrUnsupportedEvents = errors.New("unsupported Content-Type: want application/x-ndjson (JSON lines) or text/csv")

// DecodeBatch parses an event body by Content-Type: JSON lines for
// application/x-ndjson or application/json(l), contract CSV rows (the
// hfgen contracts.csv schema, header included) for text/csv or
// application/csv. The body should already be size-bounded by the caller.
func DecodeBatch(contentType string, body io.Reader) (*Batch, error) {
	switch {
	case strings.Contains(contentType, "ndjson"), strings.Contains(contentType, "jsonl"),
		strings.Contains(contentType, "json"):
		return DecodeNDJSON(body)
	case strings.Contains(contentType, "csv"):
		return DecodeCSV(body)
	default:
		return nil, fmt.Errorf("%w (got %q)", ErrUnsupportedEvents, contentType)
	}
}

// userEvent / contractEvent are the JSON-lines wire forms. Field names
// mirror the CSV schema; times are RFC3339; type and status use the same
// vocabulary the CSV writer emits ("Exchanging", "Complete", …).
type eventLine struct {
	Kind string `json:"kind"` // "user" | "contract"

	// User fields.
	Joined           string `json:"joined,omitempty"`
	FirstPost        string `json:"first_post,omitempty"`
	Posts            int    `json:"posts,omitempty"`
	MarketplacePosts int    `json:"marketplace_posts,omitempty"`
	Reputation       int    `json:"reputation,omitempty"`

	// Contract fields.
	ID              int    `json:"id"`
	Type            string `json:"type,omitempty"`
	Maker           int    `json:"maker,omitempty"`
	Taker           int    `json:"taker,omitempty"`
	Thread          int    `json:"thread,omitempty"`
	Created         string `json:"created,omitempty"`
	Decided         string `json:"decided,omitempty"`
	Completed       string `json:"completed,omitempty"`
	Status          string `json:"status,omitempty"`
	Public          bool   `json:"public,omitempty"`
	MakerObligation string `json:"maker_obligation,omitempty"`
	TakerObligation string `json:"taker_obligation,omitempty"`
	MakerRating     int    `json:"maker_rating,omitempty"`
	TakerRating     int    `json:"taker_rating,omitempty"`
	BTCAddress      string `json:"btc_address,omitempty"`
	TxHash          string `json:"tx_hash,omitempty"`
}

// DecodeNDJSON parses one event per line: {"kind":"user",...} or
// {"kind":"contract",...}. Blank lines are skipped; any other kind, or a
// malformed line, fails the whole batch — appends are all-or-nothing.
func DecodeNDJSON(body io.Reader) (*Batch, error) {
	b := &Batch{}
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20) // obligation text can be long
	for line := 1; sc.Scan(); line++ {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var ev eventLine
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&ev); err != nil {
			return nil, fmt.Errorf("ingest: event line %d: %w", line, err)
		}
		switch ev.Kind {
		case "user":
			u, err := ev.user()
			if err != nil {
				return nil, fmt.Errorf("ingest: event line %d: %w", line, err)
			}
			b.Users = append(b.Users, u)
		case "contract":
			c, err := ev.contract()
			if err != nil {
				return nil, fmt.Errorf("ingest: event line %d: %w", line, err)
			}
			b.Contracts = append(b.Contracts, c)
		default:
			return nil, fmt.Errorf("ingest: event line %d: unknown kind %q (want user or contract)", line, ev.Kind)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ingest: reading events: %w", err)
	}
	return b, nil
}

func (ev *eventLine) user() (*forum.User, error) {
	joined, err := parseEventTime(ev.Joined)
	if err != nil {
		return nil, fmt.Errorf("bad joined: %w", err)
	}
	firstPost, err := parseEventTime(ev.FirstPost)
	if err != nil {
		return nil, fmt.Errorf("bad first_post: %w", err)
	}
	return &forum.User{
		ID:               forum.UserID(ev.ID),
		Joined:           joined,
		FirstPost:        firstPost,
		Posts:            ev.Posts,
		MarketplacePosts: ev.MarketplacePosts,
		Reputation:       ev.Reputation,
	}, nil
}

func (ev *eventLine) contract() (*forum.Contract, error) {
	typ, err := forum.ParseContractType(ev.Type)
	if err != nil {
		return nil, err
	}
	status, err := forum.ParseStatus(ev.Status)
	if err != nil {
		return nil, err
	}
	created, err := parseEventTime(ev.Created)
	if err != nil {
		return nil, fmt.Errorf("bad created: %w", err)
	}
	decided, err := parseEventTime(ev.Decided)
	if err != nil {
		return nil, fmt.Errorf("bad decided: %w", err)
	}
	completed, err := parseEventTime(ev.Completed)
	if err != nil {
		return nil, fmt.Errorf("bad completed: %w", err)
	}
	return &forum.Contract{
		ID:              forum.ContractID(ev.ID),
		Type:            typ,
		Maker:           forum.UserID(ev.Maker),
		Taker:           forum.UserID(ev.Taker),
		Thread:          forum.ThreadID(ev.Thread),
		Created:         created,
		Decided:         decided,
		Completed:       completed,
		Status:          status,
		Public:          ev.Public,
		MakerObligation: ev.MakerObligation,
		TakerObligation: ev.TakerObligation,
		MakerRating:     forum.Rating(ev.MakerRating),
		TakerRating:     forum.Rating(ev.TakerRating),
		BTCAddress:      ev.BTCAddress,
		TxHash:          ev.TxHash,
	}, nil
}

func parseEventTime(s string) (time.Time, error) {
	if s == "" {
		return time.Time{}, nil
	}
	return time.Parse(time.RFC3339, s)
}

// DecodeCSV parses an event body holding contract rows in the canonical
// contracts.csv schema, header line included — the form the ingest-smoke
// job streams a truncated hfgen corpus back with. CSV batches carry no
// user events; every referenced user must already exist in the dataset.
func DecodeCSV(body io.Reader) (*Batch, error) {
	contracts, err := dataset.ReadContractsCSV(body)
	if err != nil {
		return nil, err
	}
	return &Batch{Contracts: contracts}, nil
}

// Generation is what a batch is validated against: the users and the
// contracts of the corpus it would extend. A *dataset.Dataset is one; a
// Head — a dataset plus batches accepted on top of it but not yet
// applied — is the other.
type Generation interface {
	HasUser(id forum.UserID) bool
	// MaxContractID bounds the contract IDs in Columns, so a batch whose
	// IDs all lie above it needs no scan.
	MaxContractID() forum.ContractID
	Columns() *dataset.Columns
}

// ValidateAgainst checks the batch against the generation it would
// extend: user and contract IDs must be new (and unique within the
// batch), every contract must reference a known or batch-introduced user,
// and each contract must satisfy the same invariants Dataset.Validate
// imposes on a full corpus. Nothing is modified, and nothing
// corpus-sized is built: existing contract IDs are found by one scan of
// the generation's pointer-free ID columns, skipped altogether when every
// batch ID lies above the generation's largest.
func (b *Batch) ValidateAgainst(g Generation) error {
	newUsers := make(map[forum.UserID]bool, len(b.Users))
	for _, u := range b.Users {
		if u.ID <= 0 {
			return fmt.Errorf("ingest: user id %d is not positive", u.ID)
		}
		if g.HasUser(u.ID) {
			return fmt.Errorf("ingest: user %d already exists in the dataset", u.ID)
		}
		if newUsers[u.ID] {
			return fmt.Errorf("ingest: user %d appears twice in the batch", u.ID)
		}
		newUsers[u.ID] = true
	}
	known := func(id forum.UserID) bool { return newUsers[id] || g.HasUser(id) }
	existing := b.existingContracts(g)
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

// existingContracts returns the set of the batch's contract IDs that g
// already holds; its size is bounded by the batch. When some batch ID is
// not above g's largest, one pass over the blocks' ID columns finds them,
// and the [lo, hi] range of the batch's IDs rejects almost every row
// without a map lookup.
func (b *Batch) existingContracts(g Generation) map[forum.ContractID]bool {
	existing := make(map[forum.ContractID]bool, len(b.Contracts))
	if len(b.Contracts) == 0 {
		return existing
	}
	want := make(map[int64]bool, len(b.Contracts))
	lo, hi := int64(b.Contracts[0].ID), int64(b.Contracts[0].ID)
	for _, c := range b.Contracts {
		id := int64(c.ID)
		want[id] = true
		lo, hi = min(lo, id), max(hi, id)
	}
	if lo > int64(g.MaxContractID()) {
		return existing
	}
	for _, blk := range g.Columns().Blocks {
		for _, id := range blk.ID {
			if id >= lo && id <= hi && want[id] {
				existing[forum.ContractID(id)] = true
			}
		}
	}
	return existing
}

// Head is the newest generation of a live dataset whose appends are
// applied lazily: the last applied corpus plus the batches accepted on
// top of it since, oldest first. Validating a batch against a Head and
// pushing it both cost O(batch) — the users the batches introduce are
// kept in a set, their blocks extend the head projection, and the
// largest contract ID is carried along — and Apply pays the corpus-sized
// work once for every pushed batch. A Head is not safe for concurrent
// use.
type Head struct {
	base    *dataset.Dataset
	batches []*Batch
	users   map[forum.UserID]bool
	cols    dataset.Columns
	maxID   forum.ContractID
}

// NewHead starts a head at d with no pending batches. It scans d's ID
// columns once for the largest contract ID.
func NewHead(d *dataset.Dataset) *Head {
	return &Head{
		base:  d,
		users: map[forum.UserID]bool{},
		// Clipped so pushed blocks never land in d's own backing array.
		cols:  dataset.Columns{Blocks: slices.Clip(d.Columns().Blocks)},
		maxID: d.MaxContractID(),
	}
}

// HasUser reports whether the head generation holds user id.
func (h *Head) HasUser(id forum.UserID) bool { return h.users[id] || h.base.HasUser(id) }

// MaxContractID returns the largest contract ID in the head generation.
func (h *Head) MaxContractID() forum.ContractID { return h.maxID }

// Columns returns the head generation's projection: the base corpus's
// blocks plus one block per pushed batch with contracts.
func (h *Head) Columns() *dataset.Columns { return &h.cols }

// Len reports the number of pushed batches not yet applied.
func (h *Head) Len() int { return len(h.batches) }

// Push records b, which ValidateAgainst(h) accepted, as the head's next
// generation.
func (h *Head) Push(b *Batch) {
	h.batches = append(h.batches, b)
	for _, u := range b.Users {
		h.users[u.ID] = true
	}
	if len(b.Contracts) > 0 {
		h.cols.Blocks = append(h.cols.Blocks, b.Block())
	}
	for _, c := range b.Contracts {
		h.maxID = max(h.maxID, c.ID)
	}
}

// Apply returns the head generation's corpus: the base extended by every
// pushed batch in one Apply call.
func (h *Head) Apply() *dataset.Dataset { return Apply(h.base, h.batches...) }

// Apply extends d with the batches, oldest first, copy-on-write and
// returns the new dataset; d itself is never mutated, so an in-flight
// analysis holding the previous snapshot keeps reading consistent data.
// The user map is cloned and the contract slice copied once however many
// batches land; threads, posts, and the ledger are shared — events never
// touch them. The result's columnar projection shares d's blocks and
// adds each batch's Block, so its TUDS encoding is the same whether the
// batches are applied one call at a time or all together.
func Apply(d *dataset.Dataset, batches ...*Batch) *dataset.Dataset {
	nUsers, nContracts := len(d.Users), len(d.Contracts)
	for _, b := range batches {
		nUsers += len(b.Users)
		nContracts += len(b.Contracts)
	}
	users := make(map[forum.UserID]*forum.User, nUsers)
	for id, u := range d.Users {
		users[id] = u
	}
	contracts := make([]*forum.Contract, len(d.Contracts), nContracts)
	copy(contracts, d.Contracts)
	parent := d.Columns().Blocks
	blocks := make([]*dataset.Block, len(parent), len(parent)+len(batches))
	copy(blocks, parent)
	for _, b := range batches {
		for _, u := range b.Users {
			users[u.ID] = u
		}
		if len(b.Contracts) > 0 {
			contracts = append(contracts, b.Contracts...)
			blocks = append(blocks, b.Block())
		}
	}
	nd := &dataset.Dataset{
		Users:     users,
		Threads:   d.Threads,
		Posts:     d.Posts,
		Contracts: contracts,
		Ledger:    d.Ledger,
	}
	nd.SetColumns(&dataset.Columns{Blocks: blocks})
	return nd
}

// WriteBatchContractsCSV renders the batch's contracts in the canonical
// contracts.csv form — the byte stream the serving tier's rolling dataset
// digest commits to.
func WriteBatchContractsCSV(w io.Writer, contracts []*forum.Contract) error {
	return dataset.WriteContractsCSV(w, contracts)
}

// WriteBatchUsersCSV renders the batch's users in the canonical users.csv
// form (ordered by id, so identical batches always serialise identically).
func WriteBatchUsersCSV(w io.Writer, users []*forum.User) error {
	m := make(map[forum.UserID]*forum.User, len(users))
	for _, u := range users {
		m[u.ID] = u
	}
	return dataset.WriteUsersCSV(w, m)
}

// MaxCreated returns the latest contract creation time in d (zero for an
// empty corpus) — the default ?as-of= anchor, deterministic per
// generation.
func MaxCreated(d *dataset.Dataset) time.Time {
	var max time.Time
	for _, c := range d.Contracts {
		if c.Created.After(max) {
			max = c.Created
		}
	}
	return max
}
