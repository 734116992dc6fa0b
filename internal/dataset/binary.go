package dataset

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"turnup/internal/forum"
)

// The versioned binary dataset format ("TUDS"). Layout, all little-endian:
//
//	header:   magic "TUDS" | version uint32 | nsections uint32
//	          then nsections × { id uint32, off uint64, len uint64 }
//	CONTRACTS (id 1): n uint32, then n × 107-byte rows —
//	          id int64, type uint8, status uint8, public uint8,
//	          maker int64, taker int64, thread int64,
//	          created/decided/completed int64 epoch seconds
//	          (math.MinInt64 = unset),
//	          maker_rating int64, taker_rating int64,
//	          4 × span { off uint32, len uint32 } for maker_obligation,
//	          taker_obligation, btc_address, tx_hash
//	USERS     (id 2): n uint32, then n × 56-byte rows (seven int64s:
//	          id, joined, first_post, posts, marketplace_posts,
//	          reputation, kind), sorted by id
//	ARENA     (id 3): the concatenated string arena the contract spans
//	          index into
//
// Party IDs travel raw (interning is an in-memory Block concern): a
// multi-block projection can then stream straight to the wire without
// merging per-block dictionaries. Ratings travel as int64 because the
// CSV schema accepts any integer rating and the digest round-trip
// property must hold for every corpus the CSV reader accepts.
//
// Content identity stays defined by the canonical CSV digest
// (Dataset.Digest): a binary round-trip preserves it exactly, since
// every field survives at the CSV's own (whole-second, UTC) precision.
// The encoded bytes themselves are deterministic for a given columnar
// projection, but a multi-block projection (after appends) may encode
// strings twice that a fresh single-block build would intern once — so
// compare corpora by digest, never by dataset.bin bytes.
const (
	// BinaryName is the file SaveDir writes and LoadDir prefers.
	BinaryName = "dataset.bin"
	// BinaryVersion is the current wire version; DecodeBinary rejects
	// any other.
	BinaryVersion = 1
	// ContentTypeBinary is the Content-Type under which a dataset.bin
	// body may be POSTed to /v1/datasets (the router's replication
	// payload).
	ContentTypeBinary = "application/x-turnup-dataset"
)

var binaryMagic = [4]byte{'T', 'U', 'D', 'S'}

const (
	secContracts = 1
	secUsers     = 2
	secArena     = 3

	numSections    = 3
	sectionDirLen  = 20
	headerLen      = 4 + 4 + 4 + numSections*sectionDirLen
	contractRowLen = 107
	userRowLen     = 56
)

// BinarySize returns the exact encoded size of the dataset in bytes —
// the store's byte-accounting unit — without encoding anything. The
// formula mirrors EncodeBinary field-for-field: fixed header and section
// counts, then each block's rows and arena, then the user rows.
func (d *Dataset) BinarySize() int64 {
	n := int64(headerLen+4+4) + UsersBinarySize(len(d.Users))
	for _, b := range d.Columns().Blocks {
		n += b.BinarySize()
	}
	return n
}

// BinarySize returns the bytes the block adds to an encoded dataset: its
// contract rows plus its string arena. An append grows a stored dataset
// by exactly this plus UsersBinarySize of the batch's new users.
func (b *Block) BinarySize() int64 {
	return int64(b.N)*contractRowLen + int64(len(b.Arena))
}

// UsersBinarySize returns the encoded size of n user rows.
func UsersBinarySize(n int) int64 { return int64(n) * userRowLen }

// EncodeBinary writes the dataset in the TUDS binary format. Encoding
// streams the columnar projection directly — blocks in order, spans
// rebased onto the concatenated arena — so an append generation encodes
// without rebuilding the parent's columns.
func (d *Dataset) EncodeBinary(w io.Writer) error {
	cols := d.Columns()
	var arenaLen int
	for _, b := range cols.Blocks {
		arenaLen += len(b.Arena)
	}
	nRows := cols.NumRows()
	contractsLen := 4 + nRows*contractRowLen
	usersLen := 4 + len(d.Users)*userRowLen

	buf := make([]byte, headerLen+contractsLen+usersLen+arenaLen)
	le := binary.LittleEndian
	copy(buf[0:4], binaryMagic[:])
	le.PutUint32(buf[4:], BinaryVersion)
	le.PutUint32(buf[8:], numSections)
	dir := [numSections][3]uint64{
		{secContracts, headerLen, uint64(contractsLen)},
		{secUsers, headerLen + uint64(contractsLen), uint64(usersLen)},
		{secArena, headerLen + uint64(contractsLen) + uint64(usersLen), uint64(arenaLen)},
	}
	p := 12
	for _, s := range dir {
		le.PutUint32(buf[p:], uint32(s[0]))
		le.PutUint64(buf[p+4:], s[1])
		le.PutUint64(buf[p+12:], s[2])
		p += sectionDirLen
	}

	p = headerLen
	le.PutUint32(buf[p:], uint32(nRows))
	p += 4
	base := uint32(0)
	for _, b := range cols.Blocks {
		for i := 0; i < b.N; i++ {
			le.PutUint64(buf[p:], uint64(b.ID[i]))
			buf[p+8] = b.Type[i]
			buf[p+9] = b.Status[i]
			if b.Public[i] {
				buf[p+10] = 1
			}
			le.PutUint64(buf[p+11:], uint64(b.PartyIDs[b.Maker[i]]))
			le.PutUint64(buf[p+19:], uint64(b.PartyIDs[b.Taker[i]]))
			le.PutUint64(buf[p+27:], uint64(b.Thread[i]))
			le.PutUint64(buf[p+35:], uint64(b.Created[i]))
			le.PutUint64(buf[p+43:], uint64(b.Decided[i]))
			le.PutUint64(buf[p+51:], uint64(b.Completed[i]))
			le.PutUint64(buf[p+59:], uint64(b.MakerRating[i]))
			le.PutUint64(buf[p+67:], uint64(b.TakerRating[i]))
			putSpan(buf[p+75:], b.MakerOb[i], base)
			putSpan(buf[p+83:], b.TakerOb[i], base)
			putSpan(buf[p+91:], b.BTC[i], base)
			putSpan(buf[p+99:], b.Tx[i], base)
			p += contractRowLen
		}
		base += uint32(len(b.Arena))
	}

	le.PutUint32(buf[p:], uint32(len(d.Users)))
	p += 4
	ids := make([]int, 0, len(d.Users))
	for id := range d.Users {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		u := d.Users[forum.UserID(id)]
		le.PutUint64(buf[p:], uint64(int64(u.ID)))
		le.PutUint64(buf[p+8:], uint64(epochSec(u.Joined)))
		le.PutUint64(buf[p+16:], uint64(epochSec(u.FirstPost)))
		le.PutUint64(buf[p+24:], uint64(int64(u.Posts)))
		le.PutUint64(buf[p+32:], uint64(int64(u.MarketplacePosts)))
		le.PutUint64(buf[p+40:], uint64(int64(u.Reputation)))
		le.PutUint64(buf[p+48:], uint64(int64(u.MarketKind)))
		p += userRowLen
	}

	for _, b := range cols.Blocks {
		copy(buf[p:], b.Arena)
		p += len(b.Arena)
	}

	_, err := w.Write(buf)
	return err
}

// putSpan writes one span rebased onto the concatenated arena. Empty
// spans stay {0,0} so the encoding of "no string" is canonical.
func putSpan(b []byte, sp Span, base uint32) {
	off := uint32(0)
	if sp.Len > 0 {
		off = sp.Off + base
	}
	binary.LittleEndian.PutUint32(b, off)
	binary.LittleEndian.PutUint32(b[4:], sp.Len)
}

// DecodeBinary reads a TUDS binary dataset, validating the magic,
// version, section bounds, enum ranges, span bounds, and the study
// window. The decoded dataset carries its columnar projection pre-built
// (one block over the wire arena), so sizing, re-encoding and ingest's ID
// scans need no rebuild; like the CSV pair, it has no threads, posts, or
// ledger.
func DecodeBinary(r io.Reader) (*Dataset, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(buf) < headerLen {
		return nil, fmt.Errorf("dataset: binary truncated at %d bytes (header is %d)", len(buf), headerLen)
	}
	if [4]byte(buf[0:4]) != binaryMagic {
		return nil, fmt.Errorf("dataset: bad magic %q, want %q", buf[0:4], binaryMagic[:])
	}
	le := binary.LittleEndian
	if v := le.Uint32(buf[4:]); v != BinaryVersion {
		return nil, fmt.Errorf("dataset: unsupported binary version %d (this build reads %d)", v, BinaryVersion)
	}
	if n := le.Uint32(buf[8:]); n != numSections {
		return nil, fmt.Errorf("dataset: %d sections, want %d", n, numSections)
	}
	var contracts, users, arena []byte
	var haveC, haveU, haveA bool
	p := 12
	for i := 0; i < numSections; i++ {
		id := le.Uint32(buf[p:])
		off := le.Uint64(buf[p+4:])
		ln := le.Uint64(buf[p+12:])
		if off > uint64(len(buf)) || ln > uint64(len(buf))-off {
			return nil, fmt.Errorf("dataset: section %d spans [%d,+%d) outside the %d-byte file", id, off, ln, len(buf))
		}
		sec := buf[off : off+ln]
		switch id {
		case secContracts:
			contracts, haveC = sec, true
		case secUsers:
			users, haveU = sec, true
		case secArena:
			arena, haveA = sec, true
		default:
			return nil, fmt.Errorf("dataset: unknown section id %d", id)
		}
		p += sectionDirLen
	}
	if !haveC || !haveU || !haveA {
		return nil, fmt.Errorf("dataset: binary is missing a required section")
	}

	if len(contracts) < 4 {
		return nil, fmt.Errorf("dataset: contract section truncated")
	}
	n := int(le.Uint32(contracts))
	if len(contracts)-4 != n*contractRowLen {
		return nil, fmt.Errorf("dataset: contract section holds %d bytes for %d rows", len(contracts)-4, n)
	}
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
		Arena:       arena,
	}
	parties := make(map[int64]int32)
	party := func(id int64) int32 {
		if ix, ok := parties[id]; ok {
			return ix
		}
		ix := int32(len(b.PartyIDs))
		b.PartyIDs = append(b.PartyIDs, id)
		parties[id] = ix
		return ix
	}
	rows := contracts[4:]
	for i := 0; i < n; i++ {
		row := rows[i*contractRowLen : (i+1)*contractRowLen]
		b.ID[i] = int64(le.Uint64(row))
		b.Type[i] = row[8]
		b.Status[i] = row[9]
		b.Public[i] = row[10] != 0
		b.Maker[i] = party(int64(le.Uint64(row[11:])))
		b.Taker[i] = party(int64(le.Uint64(row[19:])))
		b.Thread[i] = int64(le.Uint64(row[27:]))
		b.Created[i] = int64(le.Uint64(row[35:]))
		b.Decided[i] = int64(le.Uint64(row[43:]))
		b.Completed[i] = int64(le.Uint64(row[51:]))
		b.MakerRating[i] = int64(le.Uint64(row[59:]))
		b.TakerRating[i] = int64(le.Uint64(row[67:]))
		b.MakerOb[i] = getSpan(row[75:])
		b.TakerOb[i] = getSpan(row[83:])
		b.BTC[i] = getSpan(row[91:])
		b.Tx[i] = getSpan(row[99:])
	}
	cs, err := b.materialize()
	if err != nil {
		return nil, err
	}

	if len(users) < 4 {
		return nil, fmt.Errorf("dataset: user section truncated")
	}
	un := int(le.Uint32(users))
	if len(users)-4 != un*userRowLen {
		return nil, fmt.Errorf("dataset: user section holds %d bytes for %d rows", len(users)-4, un)
	}
	um := make(map[forum.UserID]*forum.User, un)
	for i := 0; i < un; i++ {
		row := users[4+i*userRowLen:]
		id := forum.UserID(int64(le.Uint64(row)))
		um[id] = &forum.User{
			ID:               id,
			Joined:           secTime(int64(le.Uint64(row[8:]))),
			FirstPost:        secTime(int64(le.Uint64(row[16:]))),
			Posts:            int(int64(le.Uint64(row[24:]))),
			MarketplacePosts: int(int64(le.Uint64(row[32:]))),
			Reputation:       int(int64(le.Uint64(row[40:]))),
			MarketKind:       int(int64(le.Uint64(row[48:]))),
		}
	}

	d := New()
	d.Users = um
	d.Contracts = cs
	if err := CheckWindow(d.Contracts); err != nil {
		return nil, err
	}
	d.SetColumns(&Columns{Blocks: []*Block{b}})
	return d, nil
}

func getSpan(b []byte) Span {
	return Span{
		Off: binary.LittleEndian.Uint32(b),
		Len: binary.LittleEndian.Uint32(b[4:]),
	}
}
