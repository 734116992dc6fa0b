// Package dataset defines the study-level container the analyses consume —
// users, threads, posts, contracts, and the synthetic ledger — together
// with the paper's era segmentation, monthly bucketing helpers, and CSV
// persistence so generated datasets can be shared and re-loaded exactly as
// the paper shares CrimeBB extracts under data agreements.
package dataset

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"turnup/internal/chain"
	"turnup/internal/forum"
)

// Month indexes study months: 0 = June 2018 through 24 = June 2020.
type Month int

// NumMonths is the number of months in the study window.
const NumMonths = 25

// MonthOf buckets a time into its study month (clamped to the window).
func MonthOf(t time.Time) Month {
	m := Month((t.Year()-2018)*12 + int(t.Month()) - 6)
	if m < 0 {
		return 0
	}
	if m >= NumMonths {
		return NumMonths - 1
	}
	return m
}

// Time returns the first instant of the month.
func (m Month) Time() time.Time {
	return time.Date(2018, time.Month(6+int(m)), 1, 0, 0, 0, 0, time.UTC)
}

// String renders as "2018-06".
func (m Month) String() string {
	t := m.Time()
	return fmt.Sprintf("%04d-%02d", t.Year(), int(t.Month()))
}

// Era is one of the paper's three analysis eras.
type Era int

// The three eras.
const (
	EraSetup  Era = iota // E1: forming/storming
	EraStable            // E2: norming
	EraCovid             // E3: performing
	NumEras   = 3
)

// Eras lists the eras in order.
var Eras = [NumEras]Era{EraSetup, EraStable, EraCovid}

// Era boundaries: SET-UP from contract-system adoption to the contracts-
// mandatory policy; STABLE to the WHO pandemic declaration; COVID-19 to the
// end of collection.
var (
	SetupStart  = time.Date(2018, 6, 1, 0, 0, 0, 0, time.UTC)
	StableStart = time.Date(2019, 3, 1, 0, 0, 0, 0, time.UTC)
	CovidStart  = time.Date(2020, 3, 11, 0, 0, 0, 0, time.UTC)
	StudyEnd    = time.Date(2020, 7, 1, 0, 0, 0, 0, time.UTC)
)

// EraOf returns the era containing t (times outside the window clamp to
// the nearest era).
func EraOf(t time.Time) Era {
	switch {
	case t.Before(StableStart):
		return EraSetup
	case t.Before(CovidStart):
		return EraStable
	default:
		return EraCovid
	}
}

// String renders the era as the paper names it.
func (e Era) String() string {
	switch e {
	case EraSetup:
		return "SET-UP"
	case EraStable:
		return "STABLE"
	case EraCovid:
		return "COVID-19"
	default:
		return fmt.Sprintf("Era(%d)", int(e))
	}
}

// Span returns the era's [start, end) bounds.
func (e Era) Span() (start, end time.Time) {
	switch e {
	case EraSetup:
		return SetupStart, StableStart
	case EraStable:
		return StableStart, CovidStart
	default:
		return CovidStart, StudyEnd
	}
}

// Months returns the study months whose first day falls inside the era.
// The COVID-19 era begins mid-March 2020; March is assigned to COVID-19
// for monthly analyses, matching the paper's figures.
func (e Era) Months() []Month {
	var out []Month
	for m := Month(0); m < NumMonths; m++ {
		mid := m.Time().AddDate(0, 0, 14) // mid-month representative
		if EraOf(mid) == e {
			out = append(out, m)
		}
	}
	return out
}

// Dataset is the full study corpus.
type Dataset struct {
	Users     map[forum.UserID]*forum.User
	Threads   map[forum.ThreadID]*forum.Thread
	Posts     []*forum.Post
	Contracts []*forum.Contract
	Ledger    *chain.Ledger

	// derived caches the columnar projection of Contracts, keyed to the
	// current contract count. The zero value is ready to use, so
	// field-literal construction (ingest.Apply) starts with an empty cache.
	derived derivedCache
}

// derivedCache holds the lazily built columnar projection.
type derivedCache struct {
	colsMu sync.Mutex
	cols   *Columns
}

// ErrOutOfWindow marks a loaded contract created outside the study window
// [SetupStart, StudyEnd). MonthOf deliberately clamps out-of-window times
// (monthly arrays are always fully indexable), which means loader paths
// that skip Validate would silently mis-bucket such rows into the first or
// last study month — so the load/ingest boundaries check explicitly.
var ErrOutOfWindow = errors.New("contract created outside the study window")

// InWindow reports whether t falls inside the study window
// [SetupStart, StudyEnd) — the invariant Validate, the loaders, and the
// ingest boundary all share.
func InWindow(t time.Time) bool {
	return !t.Before(SetupStart) && t.Before(StudyEnd)
}

// CheckWindow verifies every contract was created inside the study
// window, wrapping ErrOutOfWindow with the offending contract. Read,
// LoadDir, and DecodeBinary run it so no out-of-window row survives a
// load only to be clamp-bucketed by MonthOf.
func CheckWindow(contracts []*forum.Contract) error {
	for _, c := range contracts {
		if !InWindow(c.Created) {
			return fmt.Errorf("dataset: %w: contract %d created %v", ErrOutOfWindow, c.ID, c.Created)
		}
	}
	return nil
}

// New returns an empty dataset with initialised maps and ledger.
func New() *Dataset {
	return &Dataset{
		Users:   make(map[forum.UserID]*forum.User),
		Threads: make(map[forum.ThreadID]*forum.Thread),
		Ledger:  chain.NewLedger(),
	}
}

// Stats summarises the corpus for logging.
type Stats struct {
	Users, Threads, Posts, Contracts int
	Completed, Public, Disputed      int
	LedgerTxs                        int
}

// HasUser reports whether d holds user id.
func (d *Dataset) HasUser(id forum.UserID) bool {
	_, ok := d.Users[id]
	return ok
}

// MaxContractID returns the largest contract ID in d (zero when empty),
// found by one scan of the projection's ID columns.
func (d *Dataset) MaxContractID() forum.ContractID {
	var m int64
	for _, b := range d.Columns().Blocks {
		for _, id := range b.ID {
			m = max(m, id)
		}
	}
	return forum.ContractID(m)
}

// Summary computes corpus-level counts.
func (d *Dataset) Summary() Stats {
	s := Stats{
		Users:     len(d.Users),
		Threads:   len(d.Threads),
		Posts:     len(d.Posts),
		Contracts: len(d.Contracts),
	}
	for _, c := range d.Contracts {
		if c.IsComplete() {
			s.Completed++
		}
		if c.Public {
			s.Public++
		}
		if c.Status == forum.StatusDisputed {
			s.Disputed++
		}
	}
	if d.Ledger != nil {
		s.LedgerTxs = d.Ledger.Len()
	}
	return s
}

// Validate checks dataset invariants: every contract references known
// users, times are ordered and inside the study window, private contracts
// carry no obligation text, and disputed contracts are public. Thread
// references are only checkable when the thread table is populated —
// datasets loaded from the CSV pair (Load, Read) legitimately carry
// contract thread IDs without threads.csv.
func (d *Dataset) Validate() error {
	for _, c := range d.Contracts {
		if _, ok := d.Users[c.Maker]; !ok {
			return fmt.Errorf("dataset: contract %d references unknown maker %d", c.ID, c.Maker)
		}
		if _, ok := d.Users[c.Taker]; !ok {
			return fmt.Errorf("dataset: contract %d references unknown taker %d", c.ID, c.Taker)
		}
		if c.Thread != 0 && len(d.Threads) > 0 {
			if _, ok := d.Threads[c.Thread]; !ok {
				return fmt.Errorf("dataset: contract %d references unknown thread %d", c.ID, c.Thread)
			}
		}
		if !InWindow(c.Created) {
			return fmt.Errorf("dataset: contract %d created outside the study window: %v", c.ID, c.Created)
		}
		if !c.Completed.IsZero() && c.Completed.Before(c.Created) {
			return fmt.Errorf("dataset: contract %d completed before creation", c.ID)
		}
		if !c.Public && (c.MakerObligation != "" || c.TakerObligation != "") {
			return fmt.Errorf("dataset: private contract %d leaks obligation text", c.ID)
		}
		if c.Status == forum.StatusDisputed && !c.Public {
			return fmt.Errorf("dataset: disputed contract %d is not public", c.ID)
		}
	}
	return nil
}
