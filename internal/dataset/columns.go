package dataset

import (
	"fmt"
	"math"
	"time"

	"turnup/internal/forum"
)

// This file holds the struct-of-arrays columnar core. A Dataset's
// contracts project into one or more Blocks — parallel arrays of small
// fixed-width fields (interned party IDs, epoch-second timestamps,
// one-byte enums) plus a shared byte arena for the string fields, with
// per-row Spans pointing into it. The analysis layer scans these columns
// instead of chasing *forum.Contract pointers, the binary on-disk format
// (binary.go) serialises them directly, and ingest appends new blocks
// copy-on-write so generations share everything already built.

// timeSentinel encodes the zero time.Time in an epoch-second column. It
// is unreachable from any parseable RFC 3339 timestamp, so round-trips
// preserve "unset" exactly.
const timeSentinel = math.MinInt64

// epochSec projects a time onto its epoch-second column value.
func epochSec(t time.Time) int64 {
	if t.IsZero() {
		return timeSentinel
	}
	return t.Unix()
}

// secTime materialises an epoch-second column value back into a time.
// All dataset times are UTC at second precision (the CSV writers format
// whole-second RFC 3339), so the projection is lossless for any corpus
// that has passed through the canonical writers.
func secTime(s int64) time.Time {
	if s == timeSentinel {
		return time.Time{}
	}
	return time.Unix(s, 0).UTC()
}

// Span references one string as a byte range in a block's arena. The
// zero Span is the empty string; equal strings inside a block intern to
// the same Span.
type Span struct {
	Off, Len uint32
}

// Block is the struct-of-arrays projection of one run of contracts.
// Maker/Taker hold indexes into the block's interned PartyIDs table;
// Created/Decided/Completed are epoch seconds (timeSentinel = unset);
// the four string columns are Spans into the shared Arena.
//
// Month, CompletedMonth, and Era are derived scan-accelerator columns
// computed at build time from the source contracts' full-precision times
// — they are never serialised, and DecodeBinary recomputes them from the
// second-precision wire times (equivalent: era and month boundaries are
// whole-second instants).
type Block struct {
	N      int
	ID     []int64
	Type   []uint8
	Status []uint8
	Public []bool

	Maker    []int32
	Taker    []int32
	PartyIDs []int64

	Thread    []int64
	Created   []int64
	Decided   []int64
	Completed []int64

	MakerRating []int64
	TakerRating []int64

	MakerOb []Span
	TakerOb []Span
	BTC     []Span
	Tx      []Span
	Arena   []byte

	Month          []int8 // MonthOf(Created)
	CompletedMonth []int8 // completion-month bucket; -1 when not complete
	Era            []int8 // EraOf(Created)
}

// Str materialises one span from the block's arena.
func (b *Block) Str(sp Span) string {
	return string(b.Arena[sp.Off : sp.Off+uint32(sp.Len)])
}

// BuildBlock projects contracts into a fresh block, interning party IDs
// and deduplicating string fields into the arena in first-appearance
// order (so identical corpora always build byte-identical arenas).
func BuildBlock(cs []*forum.Contract) *Block {
	n := len(cs)
	b := &Block{
		N:           n,
		ID:          make([]int64, n),
		Type:        make([]uint8, n),
		Status:      make([]uint8, n),
		Public:      make([]bool, n),
		Maker:       make([]int32, n),
		Taker:       make([]int32, n),
		Thread:      make([]int64, n),
		Created:     make([]int64, n),
		Decided:     make([]int64, n),
		Completed:   make([]int64, n),
		MakerRating: make([]int64, n),
		TakerRating: make([]int64, n),
		MakerOb:     make([]Span, n),
		TakerOb:     make([]Span, n),
		BTC:         make([]Span, n),
		Tx:          make([]Span, n),
	}
	strs := make(map[string]Span)
	intern := func(s string) Span {
		if s == "" {
			return Span{}
		}
		if sp, ok := strs[s]; ok {
			return sp
		}
		sp := Span{Off: uint32(len(b.Arena)), Len: uint32(len(s))}
		b.Arena = append(b.Arena, s...)
		strs[s] = sp
		return sp
	}
	parties := make(map[int64]int32)
	party := func(id forum.UserID) int32 {
		if ix, ok := parties[int64(id)]; ok {
			return ix
		}
		ix := int32(len(b.PartyIDs))
		b.PartyIDs = append(b.PartyIDs, int64(id))
		parties[int64(id)] = ix
		return ix
	}
	for i, c := range cs {
		b.ID[i] = int64(c.ID)
		b.Type[i] = uint8(c.Type)
		b.Status[i] = uint8(c.Status)
		b.Public[i] = c.Public
		b.Maker[i] = party(c.Maker)
		b.Taker[i] = party(c.Taker)
		b.Thread[i] = int64(c.Thread)
		b.Created[i] = epochSec(c.Created)
		b.Decided[i] = epochSec(c.Decided)
		b.Completed[i] = epochSec(c.Completed)
		b.MakerRating[i] = int64(c.MakerRating)
		b.TakerRating[i] = int64(c.TakerRating)
		b.MakerOb[i] = intern(c.MakerObligation)
		b.TakerOb[i] = intern(c.TakerObligation)
		b.BTC[i] = intern(c.BTCAddress)
		b.Tx[i] = intern(c.TxHash)
	}
	b.deriveScanColumns(cs)
	return b
}

// materialize builds row-form contracts back out of the block,
// validating enum and span bounds (the block may have come off the
// wire). Strings are interned per Span so rows sharing obligation text
// share one Go string.
func (b *Block) materialize() ([]*forum.Contract, error) {
	interned := make(map[Span]string)
	str := func(sp Span) (string, error) {
		if sp.Len == 0 {
			return "", nil
		}
		if uint64(sp.Off)+uint64(sp.Len) > uint64(len(b.Arena)) {
			return "", fmt.Errorf("dataset: span [%d,+%d) outside %d-byte arena", sp.Off, sp.Len, len(b.Arena))
		}
		if s, ok := interned[sp]; ok {
			return s, nil
		}
		s := b.Str(sp)
		interned[sp] = s
		return s, nil
	}
	out := make([]*forum.Contract, b.N)
	for i := 0; i < b.N; i++ {
		if b.Type[i] >= forum.NumContractTypes {
			return nil, fmt.Errorf("dataset: contract %d has unknown type %d", b.ID[i], b.Type[i])
		}
		if b.Status[i] >= forum.NumStatuses {
			return nil, fmt.Errorf("dataset: contract %d has unknown status %d", b.ID[i], b.Status[i])
		}
		if int(b.Maker[i]) >= len(b.PartyIDs) || int(b.Taker[i]) >= len(b.PartyIDs) || b.Maker[i] < 0 || b.Taker[i] < 0 {
			return nil, fmt.Errorf("dataset: contract %d references party slot outside the interned table", b.ID[i])
		}
		mob, err := str(b.MakerOb[i])
		if err != nil {
			return nil, err
		}
		tob, err := str(b.TakerOb[i])
		if err != nil {
			return nil, err
		}
		btc, err := str(b.BTC[i])
		if err != nil {
			return nil, err
		}
		tx, err := str(b.Tx[i])
		if err != nil {
			return nil, err
		}
		out[i] = &forum.Contract{
			ID:              forum.ContractID(b.ID[i]),
			Type:            forum.ContractType(b.Type[i]),
			Maker:           forum.UserID(b.PartyIDs[b.Maker[i]]),
			Taker:           forum.UserID(b.PartyIDs[b.Taker[i]]),
			Thread:          forum.ThreadID(b.Thread[i]),
			Created:         secTime(b.Created[i]),
			Decided:         secTime(b.Decided[i]),
			Completed:       secTime(b.Completed[i]),
			Status:          forum.Status(b.Status[i]),
			Public:          b.Public[i],
			MakerObligation: mob,
			TakerObligation: tob,
			MakerRating:     forum.Rating(b.MakerRating[i]),
			TakerRating:     forum.Rating(b.TakerRating[i]),
			BTCAddress:      btc,
			TxHash:          tx,
		}
	}
	return out, nil
}

// deriveScanColumns fills the Month/CompletedMonth/Era accelerator
// columns from the rows: the source contracts when building, the
// materialised ones when decoding (whose whole-second wire times bucket
// the same way, since era and month boundaries are whole seconds).
func (b *Block) deriveScanColumns(cs []*forum.Contract) {
	b.Month = make([]int8, b.N)
	b.CompletedMonth = make([]int8, b.N)
	b.Era = make([]int8, b.N)
	for i, c := range cs {
		b.Month[i] = int8(MonthOf(c.Created))
		if c.IsComplete() {
			at := c.Completed
			if at.IsZero() {
				at = c.Created
			}
			b.CompletedMonth[i] = int8(MonthOf(at))
		} else {
			b.CompletedMonth[i] = -1
		}
		b.Era[i] = int8(EraOf(c.Created))
	}
}

// Columns is the columnar projection of a dataset's contracts: an
// ordered list of blocks whose concatenated rows equal d.Contracts.
// Single-block for loaded/generated corpora; append generations add one
// block per applied batch and share the parent's blocks untouched.
type Columns struct {
	Blocks []*Block
}

// NumRows counts rows across all blocks.
func (c *Columns) NumRows() int {
	n := 0
	for _, b := range c.Blocks {
		n += b.N
	}
	return n
}

// Columns returns the dataset's columnar projection, building and
// caching it on first use. The cache is keyed to the contract count:
// mutating d.Contracts in place invalidates it naturally, while the
// copy-on-write append path (ingest.Apply) installs extended projections
// through SetColumns that stay fresh.
func (d *Dataset) Columns() *Columns {
	d.derived.colsMu.Lock()
	defer d.derived.colsMu.Unlock()
	if d.derived.cols != nil && d.derived.cols.NumRows() == len(d.Contracts) {
		return d.derived.cols
	}
	d.derived.cols = &Columns{Blocks: []*Block{BuildBlock(d.Contracts)}}
	return d.derived.cols
}

// SetColumns installs a pre-built projection whose concatenated rows must
// equal d.Contracts: the decode path's single block, or an appended
// generation's parent blocks plus one block per applied batch. The block
// layout decides the TUDS encoding (arenas are per block), so installing
// it keeps EncodeBinary and BinarySize equal to what the store accounted
// for each batch.
func (d *Dataset) SetColumns(c *Columns) {
	d.derived.colsMu.Lock()
	d.derived.cols = c
	d.derived.colsMu.Unlock()
}
